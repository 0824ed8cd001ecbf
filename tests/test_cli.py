import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsetfpt as sf
from subsetfpt.cli import main
from subsetfpt.io import (
    ParseError,
    generate_gnp,
    generate_setsystem,
    parse_graph,
    parse_setsystem,
    render_graph,
    render_setsystem,
)

TRIANGLE_DIMACS = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
PATH3_DIMACS = "p edge 3 2\ne 1 2\ne 2 3\n"
UNCOVERABLE_SYS = "3 2\n1\n2\n"


@pytest.fixture
def run(capsys, monkeypatch):
    def go(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(argv)
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return go


class TestParseGraph:
    def test_triangle(self):
        parsed = parse_graph(TRIANGLE_DIMACS)
        assert parsed.graph.n == 3
        assert parsed.graph.edges == frozenset({(0, 1), (1, 2), (0, 2)})
        assert parsed.dropped_duplicates == 0

    def test_comments_and_blanks_ignored(self):
        parsed = parse_graph("c hello\n\np edge 2 1\nc mid\ne 1 2\n")
        assert parsed.graph.edges == frozenset({(0, 1)})

    def test_duplicates_and_self_loops_counted(self):
        parsed = parse_graph("p edge 3 4\ne 1 2\ne 2 1\ne 1 1\ne 2 3\n")
        assert parsed.graph.edges == frozenset({(0, 1), (1, 2)})
        assert parsed.dropped_duplicates == 1
        assert parsed.dropped_self_loops == 1

    @pytest.mark.parametrize(
        "text",
        [
            "",  # no problem line
            "e 1 2\n",  # edge before header
            "p edge 2\n",  # short header
            "p edge 2 1\ne 1 3\n",  # vertex out of range
            "p edge 2 1\ne 1\n",  # short edge line
            "p edge 2 1\np edge 2 1\n",  # duplicate header
            "p edge 2 1\nx 1 2\n",  # unknown line
            "p edge two 1\n",  # non-integer count
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_graph(text)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip(self, seed):
        g = generate_gnp(9, 0.4, seed)
        assert parse_graph(render_graph(g)).graph == g


class TestParseSetSystem:
    def test_example(self):
        s = parse_setsystem("3 2\n1 2\n2 3\n")
        assert s.n_ground == 3 and s.sets == (0b011, 0b110)

    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty
            "3\n1\n",  # short header
            "3 2\n1 2\n",  # fewer sets than declared
            "3 1\n1 4\n",  # element out of range
            "3 1\nx\n",  # non-integer element
            "3 0\n",  # zero sets
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_setsystem(text)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip(self, seed):
        s = generate_setsystem(7, 5, 3, seed)
        assert parse_setsystem(render_setsystem(s)) == s


class TestGenerators:
    def test_gnp_extremes(self):
        assert generate_gnp(4, 0.0, 7).edges == frozenset()
        assert len(generate_gnp(4, 1.0, 7).edges) == 6

    def test_gnp_deterministic(self):
        assert generate_gnp(10, 0.5, 3) == generate_gnp(10, 0.5, 3)
        assert generate_gnp(10, 0.5, 3) != generate_gnp(10, 0.5, 4)

    def test_setsystem_always_coverable(self):
        for seed in range(20):
            s = generate_setsystem(8, 3, 2, seed)
            union = 0
            for mask in s.sets:
                union |= mask
            assert union == (1 << 8) - 1


class TestSolveCommand:
    def test_triangle_vertex_cover(self, run):
        code, out, err = run(["solve", "-"], TRIANGLE_DIMACS)
        assert code == 0
        rec = json.loads(out)
        assert rec["outcome"] == "optimal"
        assert rec["value"] == 2
        assert rec["solution"] == [1, 2]

    def test_infeasible_exit_1(self, run):
        code, out, _ = run(
            ["--problem", "set-cover", "solve", "-"], UNCOVERABLE_SYS
        )
        assert code == 1
        assert json.loads(out)["outcome"] == "infeasible"

    def test_budget_exit_3(self, run):
        g = generate_gnp(25, 0.2, 1)
        code, out, _ = run(["solve", "-", "--budget", "20"], render_graph(g))
        assert code == 3
        assert json.loads(out)["outcome"] == "budget-exceeded"

    def test_malformed_input_exit_2(self, run):
        code, out, err = run(["solve", "-"], "p edge 2 1\ne 1 3\n")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_text_format(self, run):
        code, out, _ = run(["--format", "text", "solve", "-"], TRIANGLE_DIMACS)
        assert code == 0
        assert "value=2" in out and "\t" in out

    def test_more_than_62_elements_exit_2(self, run):
        code, out, err = run(["solve", "-", "--budget", "100"], "p edge 70 0\n")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "62" in err

    def test_problem_flag_after_subcommand(self, run):
        code, out, _ = run(
            ["solve", "-", "--problem", "independent-set"], PATH3_DIMACS
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["problem"] == "independent-set" and rec["value"] == 2


class TestApproxCommand:
    def test_matching_cover(self, run):
        code, out, _ = run(["approx", "-"], PATH3_DIMACS)
        assert code == 0
        rec = json.loads(out)
        assert rec["oracle"] == "matching-vc" and rec["ratio"] == "2"
        assert rec["value"] == 2

    def test_uncoverable_exit_1(self, run):
        code, out, _ = run(
            ["--problem", "set-cover", "approx", "-"], UNCOVERABLE_SYS
        )
        assert code == 1

    def test_unknown_oracle_exit_2(self, run):
        code, _, err = run(["approx", "-", "--oracle", "nope"], PATH3_DIMACS)
        assert code == 2 and "unknown oracle" in err


class TestBranchCommand:
    def test_found_exit_0(self, run):
        code, out, _ = run(["branch", "-", "--k", "1"], PATH3_DIMACS)
        assert code == 0
        rec = json.loads(out)
        assert rec["outcome"] == "found" and rec["solution"] == [2]

    def test_no_instance_exit_1(self, run):
        code, out, _ = run(["branch", "-", "--k", "1"], TRIANGLE_DIMACS)
        assert code == 1
        assert json.loads(out)["outcome"] == "no-instance"

    def test_node_cap_exit_3(self, run):
        g = generate_gnp(12, 0.5, 5)
        code, out, _ = run(
            ["branch", "-", "--k", "8", "--node-cap", "3"], render_graph(g)
        )
        assert code == 3

    def test_uncoverable_set_cover_exit_1(self, run):
        code, out, err = run(
            ["--problem", "set-cover", "branch", "-", "--k", "2"], UNCOVERABLE_SYS
        )
        assert code == 1
        assert json.loads(out)["outcome"] == "infeasible"
        assert "Traceback" not in err

    def test_max_problem_dispatches(self, run):
        code, out, _ = run(
            ["--problem", "independent-set", "branch", "-", "--k", "2"],
            PATH3_DIMACS,
        )
        assert code == 0
        assert json.loads(out)["solution"] == [1, 3]


class TestDualCommand:
    def test_approx_or_brute_exit_0(self, run):
        code, out, _ = run(["dual", "-", "--epsilon", "1/2"], TRIANGLE_DIMACS)
        assert code == 0
        rec = json.loads(out)
        assert rec["path"] in ("approx", "brute")
        assert rec["dual_value"] is not None

    def test_epsilon_decimal_accepted(self, run):
        code, out, _ = run(["dual", "-", "--epsilon", "0.5"], TRIANGLE_DIMACS)
        assert code == 0

    def test_bad_epsilon_exit_2(self, run):
        code, _, _ = run(["dual", "-", "--epsilon", "0"], TRIANGLE_DIMACS)
        assert code == 2

    def test_zero_denominator_epsilon_exit_2(self, run):
        code, out, err = run(["dual", "-", "--epsilon", "1/0"], TRIANGLE_DIMACS)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: epsilon '1/0' has a zero denominator"]

    def test_budget_exceeded_exit_3(self, run):
        g = generate_gnp(12, 0.6, 8)
        code, out, _ = run(
            [
                "--problem",
                "independent-set",
                "dual",
                "-",
                "--epsilon",
                "1/100",
                "--brute-cap",
                "5",
            ],
            render_graph(g),
        )
        assert code == 3
        assert json.loads(out)["path"] == "budget-exceeded"


class TestCheckIntersectiveCommand:
    def test_intersective_exit_0(self, run):
        code, out, _ = run(["check-intersective", "-"], TRIANGLE_DIMACS)
        assert code == 0
        assert json.loads(out)["verdict"] == "intersective"

    def test_uncoverable_set_cover_exit_1(self, run):
        code, out, err = run(
            ["--problem", "set-cover", "check-intersective", "-"], UNCOVERABLE_SYS
        )
        assert code == 1
        assert json.loads(out)["outcome"] == "infeasible"
        assert "Traceback" not in err

    def test_budget_exit_3(self, run):
        g = generate_gnp(10, 0.3, 2)
        code, out, _ = run(
            ["check-intersective", "-", "--budget", "5"], render_graph(g)
        )
        assert code == 3


class TestGenCommand:
    def test_gnp_output_parses(self, run):
        code, out, _ = run(["--seed", "7", "gen", "--model", "gnp", "--n", "6"])
        assert code == 0
        assert parse_graph(out).graph.n == 6

    def test_setsystem_output_parses(self, run):
        code, out, _ = run(
            ["--seed", "7", "gen", "--model", "setsystem", "--ground", "5", "--sets", "4"]
        )
        assert code == 0
        s = parse_setsystem(out)
        assert s.n_ground == 5 and s.m == 4


class TestExperimentCommand:
    def test_dual_experiment_has_aggregate(self, run):
        code, out, _ = run(
            [
                "--seed",
                "11",
                "experiment",
                "--run",
                "dual",
                "--count",
                "5",
                "--n",
                "8",
                "--epsilon",
                "1/2",
            ]
        )
        assert code == 0
        rows = [json.loads(ln) for ln in out.splitlines()]
        assert len(rows) == 6
        agg = rows[-1]
        assert agg["record"] == "aggregate" and agg["rows"] == 5
        assert "min_ratio" in agg

    def test_zero_denominator_epsilon_exit_2(self, run):
        code, out, err = run(["experiment", "--run", "dual", "--epsilon", "1/0"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: epsilon '1/0' has a zero denominator"]

    def test_branch_experiment_counts_agreements(self, run):
        code, out, _ = run(
            ["--seed", "3", "experiment", "--run", "branch", "--count", "4", "--n", "7"]
        )
        assert code == 0
        agg = json.loads(out.splitlines()[-1])
        assert agg["agreements"] == 4

    @pytest.mark.parametrize(
        "flags",
        [
            ["--run", "branch", "--oracle", "nope"],
            ["--run", "check-intersective", "--oracle", "nope"],
            ["--run", "branch", "--oracle", "greedy-mis"],  # goal does not match
            ["--run", "dual", "--epsilon", "2"],
            ["--run", "dual", "--brute-cap", "0"],
            ["--run", "branch", "--node-cap", "0"],
            ["--problem", "min-independent-dominating-set", "--run", "branch"],
        ],
        ids=["oracle", "oracle-check", "oracle-goal", "epsilon", "brute-cap", "node-cap",
             "no-restriction"],
    )
    def test_invalid_flag_is_one_error_line(self, run, flags):
        code, out, err = run(["experiment", "--count", "2", "--n", "6"] + flags)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


DETERMINISM_CASES = [
    (["solve", "-"], TRIANGLE_DIMACS),
    (["approx", "-"], PATH3_DIMACS),
    (["branch", "-", "--k", "2"], TRIANGLE_DIMACS),
    (["dual", "-", "--epsilon", "1/2"], TRIANGLE_DIMACS),
    (["check-intersective", "-"], TRIANGLE_DIMACS),
    (["--seed", "9", "gen", "--model", "gnp", "--n", "8"], None),
    (["--seed", "9", "gen", "--model", "setsystem"], None),
    (["--seed", "9", "experiment", "--run", "solve", "--count", "3", "--n", "6"], None),
]


@pytest.mark.parametrize("argv,stdin_text", DETERMINISM_CASES)
def test_stdout_byte_identical_across_runs(run, argv, stdin_text):
    code1, out1, _ = run(argv, stdin_text)
    code2, out2, _ = run(argv, stdin_text)
    assert code1 == code2
    assert out1 == out2


# --- fuzz: every accepted argv ends in one record or one error line -------


@st.composite
def graph_text(draw):
    n = draw(st.integers(0, 10))
    pairs = st.tuples(st.integers(1, n + 1), st.integers(1, n + 1))
    edges = draw(st.lists(pairs, max_size=20)) if n else []
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


@st.composite
def set_system_text(draw):
    ground = draw(st.integers(0, 8))
    m = draw(st.integers(0, 10))
    sets = [draw(st.lists(st.integers(1, ground + 1), max_size=4)) for _ in range(m)]
    return "\n".join([f"{ground} {m}"] + [" ".join(map(str, s)) for s in sets]) + "\n"


BUDGETS = st.integers(-1, 16).map(str)
ORACLE_FLAG = st.sampled_from([[], ["--oracle", "nope"]] + [["--oracle", o] for o in sf.ORACLES])


EPSILONS = st.sampled_from(["1/4", "1/2", "0.1", "1", "0", "2", "1/0", "abc", "-1/3"])
NODE_CAPS = st.sampled_from(["0", "1", "16", "1000"])


def experiment_argv(draw, kind):
    run = draw(st.sampled_from(["solve", "branch", "dual", "check-intersective"]))
    argv = ["--problem", kind.value, "--seed", str(draw(st.integers(0, 50))), "experiment"]
    argv += ["--run", run, "--count", str(draw(st.integers(-1, 3)))]
    argv += ["--n", str(draw(st.integers(-1, 10))), "--p", draw(st.sampled_from(["0", "0.3", "1", "2"]))]
    argv += ["--ground", str(draw(st.integers(0, 6))), "--sets", str(draw(st.integers(0, 8)))]
    argv += draw(ORACLE_FLAG) + [f"--epsilon={draw(EPSILONS)}", "--brute-cap", draw(BUDGETS)]
    return argv + ["--budget", draw(BUDGETS), "--node-cap", draw(NODE_CAPS)]


@st.composite
def cli_call(draw):
    kind = draw(st.sampled_from(list(sf.ProblemKind)))
    set_kind = kind in (sf.ProblemKind.SET_COVER, sf.ProblemKind.SET_PACKING)
    text = draw(
        st.one_of(
            set_system_text() if set_kind else graph_text(),
            st.text(alphabet="pe 0123456789/\n-", max_size=30),
        )
    )
    sub = draw(
        st.sampled_from(["solve", "approx", "branch", "dual", "check-intersective", "experiment"])
    )
    if sub == "experiment":
        return experiment_argv(draw, kind), ""
    argv = ["--problem", kind.value, sub, "-"]
    if sub in ("solve", "check-intersective"):
        argv += ["--budget", draw(BUDGETS)]
    if sub != "solve":
        argv += draw(ORACLE_FLAG)
    if sub == "branch":
        argv += ["--k", draw(BUDGETS), "--node-cap", draw(NODE_CAPS)]
        argv += draw(st.sampled_from([[], ["--no-prune"]]))
    if sub == "dual":
        argv += [f"--epsilon={draw(EPSILONS)}", "--brute-cap", draw(BUDGETS)]
        argv += draw(st.sampled_from([[], ["--force-brute"]]))
    return argv, text


def _call(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=360, deadline=None)
@given(cli_call())
def test_fuzz_one_record_or_one_error_line(call):
    argv, text = call
    code, out, err = _call(argv, text)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out == ""
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and err.splitlines()[-1] == errors[0]
    elif "experiment" in argv:
        # one row per instance, then the aggregate
        rows = [json.loads(ln) for ln in out.splitlines()]
        assert code == 0 and rows[-1]["record"] == "aggregate"
        assert len(rows) == rows[-1]["rows"] + 1
    else:
        lines = out.splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)
