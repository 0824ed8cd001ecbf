import contextlib
import hashlib
import io
import json
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsetfpt as sf
from conftest import recursion_limit_near_here
from subsetfpt.cli import main
from subsetfpt.problems import SET_KINDS
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
EDGE_1_2_OF_3 = "p edge 3 1\ne 1 2\n"
NEGATIVE_BUDGET = "error: budget must be >= 0, got -1"
# greedy-mis has clique's goal, but on this graph it would return 22
# independent vertices, which are no clique: its ratio is not for clique
G40 = render_graph(generate_gnp(40, 0.05, 3))
CLIQUE_BY_MIS = ["--problem", "clique", "--oracle", "greedy-mis"]
MIS_FOR_ITS_KIND = "error: oracle greedy-mis is for independent-set only"
# Fraction would build 10**20000000 (most of a minute) before failing.
HUGE_EPSILONS = ["1e-20000000", "1e-5000"]


def too_many_digits(epsilon):
    limit = sys.get_int_max_str_digits()
    return f"error: epsilon {epsilon!r} has over {limit} digits in its numerator or denominator"


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

    def test_repeated_duplicates_and_self_loops_counted(self):
        parsed = parse_graph("p edge 3 7\ne 2 1\ne 1 2\ne 2 1\ne 3 3\ne 3 3\ne 1 3\ne 2 2\n")
        assert parsed.graph.edges == frozenset({(0, 1), (0, 2)})
        assert (parsed.dropped_duplicates, parsed.dropped_self_loops) == (2, 3)

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

    def test_empty_set_has_no_line(self):
        # The blank line an empty set would need is skipped on parsing, so
        # rendering refuses it rather than write a file that cannot be read.
        with pytest.raises(ValueError, match="set 1 is empty"):
            render_setsystem(sf.SetSystem(n_ground=3, sets=(0b011, 0, 0b100)))
        with pytest.raises(ParseError, match="declares 3 sets but found 2"):
            parse_setsystem("3 3\n1 2\n\n3\n")


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

    def test_negative_budget_exit_2(self, run):
        code, out, err = run(["solve", "-", "--budget", "-1"], EDGE_1_2_OF_3)
        assert (code, out, err.splitlines()) == (2, "", [NEGATIVE_BUDGET])

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

    def test_oracle_for_another_kind_exit_2(self, run):
        code, out, err = run(["approx", "-", *CLIQUE_BY_MIS], G40)
        assert (code, out, err.splitlines()) == (2, "", [MIS_FOR_ITS_KIND])


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

    def test_uncoverable_set_cover_is_infeasible_before_the_prune(self, run):
        # Ground element 0 is in no set.  At k = 1 the greedy would pass the
        # bound H_1 * 1 at its second pick, before it reaches element 0.
        code, out, _ = run(["--problem", "set-cover", "branch", "-", "--k", "1"], "6 5\n1\n2\n3\n4\n5\n")
        assert (code, json.loads(out)["outcome"]) == (1, "infeasible")

    def test_oracle_for_the_other_instance_type_exit_2(self, run):
        # Refused before the first node, though the root of an edgeless
        # graph is a solution that no oracle call is needed for.
        code, out, err = run(["branch", "-", "--k", "0", "--oracle", "greedy-set-cover"], "p edge 3 0\n")
        assert (code, out, err.splitlines()) == (2, "", ["error: oracle greedy-set-cover is for set-cover only"])

    def test_max_problem_dispatches(self, run):
        code, out, _ = run(
            ["--problem", "independent-set", "branch", "-", "--k", "2"],
            PATH3_DIMACS,
        )
        assert code == 0
        assert json.loads(out)["solution"] == [1, 3]

    def test_perfect_matching_at_half_n(self, run):
        text = "p edge 24 12\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 24, 2))
        code, out, _ = run(["branch", "-", "--k", "12"], text)
        rec = json.loads(out)
        assert code == 0
        assert (rec["outcome"], rec["value"], rec["nodes_expanded"]) == ("found", 12, 157)
        assert rec["solution"] == list(range(1, 24, 2))

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_unrestrictable_problem_exit_2(self, run, k):
        code, out, err = run(
            ["--problem", "min-independent-dominating-set", "branch", "-", "--k", k], PATH3_DIMACS
        )
        assert (code, out) == (2, "")
        assert err == "error: min-independent-dominating-set(n=3) has no restriction operator\n"

    def test_search_deeper_than_recursion_limit_answers(self, run):
        # A perfect matching on 300 vertices at k = 150: the first dive chooses
        # 150 vertices, past a recursion limit 100 frames above here.
        text = "p edge 300 150\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 300, 2))
        with recursion_limit_near_here():
            code, out, _ = run(["branch", "-", "--k", "150"], text)
        assert code == 0
        rec = json.loads(out)
        assert (rec["value"], rec["max_depth"]) == (150, 150)


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

    @pytest.mark.parametrize("epsilon", HUGE_EPSILONS)
    def test_epsilon_past_the_int_digit_limit_exit_2(self, run, epsilon):
        code, out, err = run(["dual", "-", "--epsilon", epsilon], TRIANGLE_DIMACS)
        assert (code, out, err.splitlines()) == (2, "", [too_many_digits(epsilon)])

    def test_epsilon_under_the_int_digit_limit_answers(self, run):
        code, out, _ = run(["dual", "-", "--epsilon", "1e-4000"], TRIANGLE_DIMACS)
        assert code == 0
        assert json.loads(out)["epsilon"] == str(Fraction(1, 10**4000))

    def test_uncoverable_set_cover_record_names_oracle(self, run):
        code, out, err = run(
            ["--problem", "set-cover", "dual", "-", "--epsilon", "1/2"], UNCOVERABLE_SYS
        )
        assert code == 1
        assert json.loads(out) == {
            "command": "dual", "problem": "set-cover", "n": 2, "n_ground": 3,
            "m": 2, "oracle": "greedy-set-cover", "outcome": "infeasible",
        }
        assert "Traceback" not in err

    def test_oracle_for_another_kind_exit_2(self, run):
        code, out, err = run(["dual", "-", "--epsilon", "1", *CLIQUE_BY_MIS], G40)
        assert (code, out, err.splitlines()) == (2, "", [MIS_FOR_ITS_KIND])

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

    def test_edgeless_graph_exit_0(self, run):
        code, out, _ = run(["check-intersective", "-"], "p edge 4 0\n")
        assert code == 0
        rec = json.loads(out)
        assert (rec["verdict"], rec["oracle_solution"], rec["intersecting_optimum"]) == (
            "intersective", [], [])

    def test_budget_exit_3(self, run):
        g = generate_gnp(10, 0.3, 2)
        code, out, _ = run(
            ["check-intersective", "-", "--budget", "5"], render_graph(g)
        )
        assert code == 3

    def test_negative_budget_exit_2(self, run):
        code, out, err = run(["check-intersective", "-", "--budget", "-1"], EDGE_1_2_OF_3)
        assert (code, out, err.splitlines()) == (2, "", [NEGATIVE_BUDGET])

    def test_oracle_for_another_kind_exit_2(self, run):
        g10 = render_graph(generate_gnp(10, 0.3, 3))
        code, out, err = run(["check-intersective", "-", *CLIQUE_BY_MIS], g10)
        assert (code, out, err.splitlines()) == (2, "", [MIS_FOR_ITS_KIND])


K4_DIMACS = "p edge 4 6\n" + "".join(f"e {u} {v}\n" for u in range(1, 5) for v in range(u + 1, 5))
STAR3_PLUS_3_DIMACS = "p edge 7 3\ne 1 2\ne 1 3\ne 1 4\n"


@pytest.mark.parametrize("argv,stdin_text,line", [
    # solve gives 1, but matching-vc's ratio 2 is false here: the prune answered no-instance
    (["--problem", "dominating-set", "branch", "-", "--oracle", "matching-vc", "--k", "1"],
     K4_DIMACS, "error: oracle matching-vc is for vertex-cover only"),
    (["--problem", "vertex-cover", "branch", "-", "--oracle", "greedy-dominating", "--k", "1"],
     STAR3_PLUS_3_DIMACS, "error: oracle greedy-dominating is for dominating-set only"),
    # the dual optimum is 4; this answered 0 with guarantee 1/2
    (["--problem", "vertex-cover", "dual", "-", "--oracle", "greedy-ids", "--epsilon", "1/2"],
     "p edge 4 0\n", "error: oracle greedy-ids is for min-independent-dominating-set only"),
], ids=["branch-dominating-by-matching", "branch-cover-by-dominating", "dual-cover-by-ids"])
def test_oracle_for_another_kind_of_the_same_goal_exit_2(run, argv, stdin_text, line):
    code, out, err = run(argv, stdin_text)
    assert (code, out, err.splitlines()) == (2, "", [line])


def test_branch_has_no_switch_for_the_prune(run):
    # The prune changes node counts and never an answer, so no flag turns it off.
    with pytest.raises(SystemExit) as exc:
        run(["branch", "-", "--k", "1", "--no-prune"], PATH3_DIMACS)
    assert exc.value.code == 2


# 2^62 elements: building the instance's list of them raises MemoryError at
# once, before anything is allocated.
HUGE = 1 << 62


@pytest.mark.parametrize("argv,stdin_text,line", [
    (["solve", "-"], "p edge -3 0\n", "error: line 1: negative vertex count"),
    (["solve", "-"], "p edge 3 1\ne 1 x\n", "error: line 2: malformed edge line 'e 1 x'"),
    (["--problem", "set-cover", "solve", "-"], "3 x\n1\n", "error: malformed header '3 x'"),
    (["dual", "-", "--epsilon", "abc"], TRIANGLE_DIMACS, "error: Invalid literal for Fraction: 'abc'"),
], ids=["negative-vertex-count", "non-integer-edge", "non-integer-header", "epsilon-not-a-number"])
def test_outside_input_refused_in_one_line(run, argv, stdin_text, line):
    code, out, err = run(argv, stdin_text)
    assert (code, out, err.splitlines()) == (2, "", [line])


@pytest.mark.parametrize("argv,stdin_text", [
    (["solve", "-"], f"p edge {HUGE} 0\n"),
    (["--problem", "set-cover", "solve", "-"], f"{HUGE} 1\n1\n"),
    (["--problem", "set-packing", "approx", "-"], f"{HUGE} 1\n1\n"),
], ids=["graph-solve", "set-cover-solve", "set-packing-approx"])
def test_huge_declared_size_exit_2(run, argv, stdin_text):
    code, out, err = run(argv, stdin_text)
    assert (code, out, err.splitlines()) == (
        2, "", ["error: out of memory for the instance's declared size"])


@pytest.mark.parametrize("argv,stdin_text", [
    (["approx", "-", "--oracle", "greedy-mis"], PATH3_DIMACS),
    (["check-intersective", "-", "--oracle", "greedy-mis"], "p edge 3 0\n"),
], ids=["approx", "check-intersective"])
def test_oracle_for_the_other_goal_exit_2(run, argv, stdin_text):
    # A maximization oracle on vertex cover: no ratio of the wrong kind and
    # no verdict, the branch command's refusal instead.
    code, out, err = run(argv, stdin_text)
    assert (code, out, err.splitlines()) == (
        2, "", ["error: oracle goal must match the problem's goal"])


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


# Each run that takes an oracle, with the flags its single command needs.
ONE_RUN = (("dual", ("--epsilon", "1/4")), ("branch", ("--k", "1")), ("check-intersective", ()))


class TestExperimentCommand:
    @pytest.mark.parametrize("count", ["0", "2"])
    @pytest.mark.parametrize("what", ["solve", "branch", "check-intersective"])
    def test_negative_budget_exit_2_before_any_row(self, run, what, count):
        code, out, err = run(["experiment", "--run", what, "--count", count,
                              "--n", "6", "--budget", "-1"])
        assert (code, out, err.splitlines()) == (2, "", [NEGATIVE_BUDGET])

    @pytest.mark.parametrize("what", ["solve", "branch", "dual", "check-intersective"])
    def test_negative_count_exit_2_before_any_row(self, run, what):
        code, out, err = run(["experiment", "--run", what, "--count", "-1", "--n", "6"])
        assert (code, out, err.splitlines()) == (2, "", ["error: count must be >= 0, got -1"])

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

    def test_dual_experiment_reports_worst_ratio_of_minimized_dual(self, run):
        # The dual of clique minimizes, so its worst row is the largest ratio.
        code, out, _ = run(
            ["--problem", "clique", "--seed", "0", "experiment", "--run", "dual",
             "--count", "6", "--n", "20", "--epsilon", "1"]
        )
        assert code == 0
        *rows, agg = map(json.loads, out.splitlines())
        ratios = [Fraction(r["achieved_ratio"]) for r in rows]
        assert len(ratios) == 6 and min(ratios) < max(ratios)
        assert "min_ratio" not in agg
        assert Fraction(agg["max_ratio"]) == max(ratios)

    def test_oracle_for_another_kind_refused_before_any_row(self, run):
        for count in ("0", "2"):
            code, out, err = run(["--seed", "3", "experiment", "--run", "dual", "--count", count,
                                  "--n", "10", "--p", "0.3", "--epsilon", "1", *CLIQUE_BY_MIS])
            assert (code, out, err.splitlines()) == (2, "", [MIS_FOR_ITS_KIND])

    def test_oracle_for_another_kind_refused_before_any_row_of_check(self, run):
        for count in ("0", "2"):
            code, out, err = run(["--seed", "3", "experiment", "--run", "check-intersective",
                                  "--count", count, "--n", "10", "--p", "0.3", *CLIQUE_BY_MIS])
            assert (code, out, err.splitlines()) == (2, "", [MIS_FOR_ITS_KIND])

    def test_zero_denominator_epsilon_exit_2(self, run):
        code, out, err = run(["experiment", "--run", "dual", "--epsilon", "1/0"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: epsilon '1/0' has a zero denominator"]

    @pytest.mark.parametrize("epsilon", HUGE_EPSILONS)
    def test_epsilon_past_the_int_digit_limit_exit_2(self, run, epsilon):
        code, out, err = run(["experiment", "--run", "dual", "--epsilon", epsilon])
        assert (code, out, err.splitlines()) == (2, "", [too_many_digits(epsilon)])

    def test_epsilon_under_the_int_digit_limit_answers(self, run):
        code, out, _ = run(["experiment", "--run", "dual", "--count", "1", "--n", "6", "--epsilon", "1e-4000"])
        assert code == 0
        assert json.loads(out.splitlines()[-1])["errors"] == 0

    @pytest.mark.parametrize("what,outcome", [("solve", "budget-exceeded"), ("branch", "no-reference")])
    def test_rows_past_the_budget(self, run, what, outcome):
        code, out, _ = run(["experiment", "--run", what, "--count", "2", "--n", "8", "--budget", "5"])
        *rows, agg = map(json.loads, out.splitlines())
        assert code == 0 and [r["outcome"] for r in rows] == [outcome, outcome]
        assert (agg["rows"], agg["errors"]) == (2, 0)

    def test_dual_rows_with_optimum_zero(self, run):
        # The dual of clique on a complete graph: the empty set is optimal.
        code, out, _ = run(["--problem", "clique", "experiment", "--run", "dual", "--count", "2",
                            "--n", "4", "--p", "1", "--epsilon", "1/2"])
        *rows, agg = map(json.loads, out.splitlines())
        assert code == 0 and len(rows) == 2
        for r in rows:
            assert (r["dual_value"], r["opt"], r["achieved_ratio"]) == (0, 0, "1")
        assert (agg["errors"], agg["max_ratio"]) == (0, "1")

    def test_branch_experiment_counts_agreements(self, run):
        code, out, _ = run(
            ["--seed", "3", "experiment", "--run", "branch", "--count", "4", "--n", "7"]
        )
        assert code == 0
        agg = json.loads(out.splitlines()[-1])
        assert agg["agreements"] == 4

    @pytest.mark.parametrize(
        "flags,single",
        [
            (["--run", "branch", "--oracle", "nope"], ["branch", "-", "--k", "1", "--oracle", "nope"]),
            (["--run", "check-intersective", "--oracle", "nope"],
             ["check-intersective", "-", "--oracle", "nope"]),
            (["--run", "branch", "--oracle", "greedy-mis"],  # goal does not match
             ["branch", "-", "--k", "1", "--oracle", "greedy-mis"]),
            (["--run", "dual", "--oracle", "greedy-mis"],
             ["dual", "-", "--epsilon", "1/4", "--oracle", "greedy-mis"]),
            (["--run", "check-intersective", "--oracle", "greedy-mis"],
             ["check-intersective", "-", "--oracle", "greedy-mis"]),
            (["--run", "dual", "--epsilon", "2"], ["dual", "-", "--epsilon", "2"]),
            (["--run", "dual", "--brute-cap", "0"], ["dual", "-", "--epsilon", "1/4", "--brute-cap", "0"]),
            (["--run", "branch", "--node-cap", "0"], ["branch", "-", "--k", "1", "--node-cap", "0"]),
            (["--problem", "min-independent-dominating-set", "--run", "branch"],
             ["--problem", "min-independent-dominating-set", "branch", "-", "--k", "1"]),
            # an oracle that reads the other instance type
            *((["--run", r, "--oracle", "greedy-set-cover"], [r, "-", *rest, "--oracle", "greedy-set-cover"])
              for r, rest in ONE_RUN),
            *((["--problem", "set-cover", "--run", r, "--oracle", "matching-vc"],
               ["--problem", "set-cover", r, "-", *rest, "--oracle", "matching-vc"])
              for r, rest in ONE_RUN),
        ],
        ids=["oracle", "oracle-check", "oracle-goal", "oracle-goal-dual", "oracle-goal-check",
             "epsilon", "brute-cap",
             "node-cap", "no-restriction",
             *(f"{r}-reads-{t}" for t in ("set-system", "graph") for r, _ in ONE_RUN)],
    )
    def test_invalid_flag_is_one_error_line(self, run, flags, single):
        # Refused before any row, even with no rows, in the words of the
        # command a row runs on an instance of the same type.
        _, _, expected = run(single, S6 if "set-cover" in single else PATH3_DIMACS)
        for count in ("0", "2"):
            code, out, err = run(["experiment", "--count", count, "--n", "3"] + flags)
            assert (code, out) == (2, "")
            assert err == expected and len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("p,path,opt", [("0.1", "brute", 7), ("0.05", "approx", 9)])
    def test_dual_row_runs_one_exhaustive_search(self, run, monkeypatch, p, path, opt):
        # A brute-path row's answer is already the optimum the row compares against.
        calls = []
        optima = sf.core._optima
        monkeypatch.setattr(sf.core, "_optima", lambda *a, **kw: calls.append(a) or optima(*a, **kw))
        code, out, _ = run(["--seed", "11", "experiment", "--run", "dual", "--count", "1",
                            "--n", "12", "--p", p, "--epsilon", "1"])
        row = json.loads(out.splitlines()[0])
        assert (code, row["path"], row["opt"], len(calls)) == (0, path, opt, 1)


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


# Instances for the pinned cases: drawn by the generators, so these cases
# also pin `generate_gnp` and `generate_setsystem`.
G6 = render_graph(generate_gnp(6, 0.3, 0))  # dual: approx at ε = 1/2, brute at 1/10
G6B = render_graph(generate_gnp(6, 0.3, 1))
G6_NOT = render_graph(generate_gnp(6, 0.4, 60))  # greedy-mis is not intersective here
G8 = render_graph(generate_gnp(8, 0.4, 3))
G10 = render_graph(generate_gnp(10, 0.3, 0))
G10B = render_graph(generate_gnp(10, 0.3, 2))
G12 = render_graph(generate_gnp(12, 0.5, 5))
G25 = render_graph(generate_gnp(25, 0.2, 1))
S6 = render_setsystem(generate_setsystem(6, 6, 4, 0))

# (argv, stdin, exit code, sha256(stdout)[:16]); every outcome, every kind in
# json and text, each experiment run and both gen models.
PINNED = [
    (["--problem", "vertex-cover", "solve", "-"], G8, 0, "08b0e8de591f26a8"),
    (["--format", "text", "--problem", "vertex-cover", "solve", "-"], G8, 0, "4c1f655f3759b355"),
    (["--problem", "independent-set", "solve", "-"], G8, 0, "06cd9b6e631253ea"),
    (["--format", "text", "--problem", "independent-set", "solve", "-"], G8, 0, "a2d5e04c8828f132"),
    (["--problem", "clique", "solve", "-"], G8, 0, "f7f1c78d9e79991e"),
    (["--format", "text", "--problem", "clique", "solve", "-"], G8, 0, "8026ce6753e29376"),
    (["--problem", "dominating-set", "solve", "-"], G8, 0, "d20fb583b51cd91f"),
    (["--format", "text", "--problem", "dominating-set", "solve", "-"], G8, 0, "edd7b476f982061a"),
    (["--problem", "set-cover", "solve", "-"], S6, 0, "1a62824eec1283c6"),
    (["--format", "text", "--problem", "set-cover", "solve", "-"], S6, 0, "9d0c29030e9073e8"),
    (["--problem", "set-packing", "solve", "-"], S6, 0, "d060277ab8e94ea1"),
    (["--format", "text", "--problem", "set-packing", "solve", "-"], S6, 0, "f3a3b048a4d6e221"),
    (["--problem", "feedback-vertex-set", "solve", "-"], G8, 0, "a280b80768bd0aaf"),
    (["--format", "text", "--problem", "feedback-vertex-set", "solve", "-"], G8, 0, "7771e9348fd7008d"),
    (["--problem", "max-minimal-vertex-cover", "solve", "-"], G8, 0, "5caabe35dda13871"),
    (["--format", "text", "--problem", "max-minimal-vertex-cover", "solve", "-"], G8, 0, "ca366f83492d69a9"),
    (["--problem", "min-independent-dominating-set", "solve", "-"], G8, 0, "8a67d141105c3925"),
    (["--format", "text", "--problem", "min-independent-dominating-set", "solve", "-"], G8, 0, "960b118540c5a351"),
    (["solve", "-"], TRIANGLE_DIMACS, 0, "61edc95cf32cfa87"),
    (["--problem", "set-cover", "solve", "-"], UNCOVERABLE_SYS, 1, "54cf0d804ae245ab"),
    (["--format", "text", "--problem", "set-cover", "solve", "-"], UNCOVERABLE_SYS, 1, "99e0b0caddebb6b3"),
    (["solve", "-", "--budget", "20"], G25, 3, "53812672a53e67e7"),
    (["solve", "-"], "p edge 2 1\ne 1 3\n", 2, "e3b0c44298fc1c14"),
    (["approx", "-"], PATH3_DIMACS, 0, "5cba7a0eccd69c49"),
    (["--format", "text", "approx", "-"], PATH3_DIMACS, 0, "c11a0ac777a230f0"),
    (["--problem", "set-cover", "approx", "-"], UNCOVERABLE_SYS, 1, "761a025644257d5e"),
    (["--problem", "feedback-vertex-set", "approx", "-", "--oracle", "matching-vc"], G8, 2, "e3b0c44298fc1c14"),
    (["--problem", "set-cover", "approx", "-"], S6, 0, "d78460289feba691"),
    (["--format", "text", "--problem", "dominating-set", "approx", "-"], G8, 0, "b55e63cd8267801b"),
    (["--problem", "feedback-vertex-set", "approx", "-"], G8, 2, "e3b0c44298fc1c14"),
    (["branch", "-", "--k", "1"], PATH3_DIMACS, 0, "f63e6ff9f3a4171d"),
    (["branch", "-", "--k", "1"], TRIANGLE_DIMACS, 1, "ebac4faefc098056"),
    (["branch", "-", "--k", "8", "--node-cap", "3"], G12, 3, "5749ecf99e80f747"),
    (["--problem", "set-cover", "branch", "-", "--k", "2"], UNCOVERABLE_SYS, 1, "df14e200f1f0b6c8"),
    (["--format", "text", "--problem", "independent-set", "branch", "-", "--k", "2"], PATH3_DIMACS, 0, "caedceeccf7094d0"),
    (["--format", "text", "--problem", "dominating-set", "branch", "-", "--k", "3"], G8, 0, "6a112f3942244acd"),
    (["--problem", "set-cover", "branch", "-", "--k", "2"], S6, 0, "11dad82699049cfd"),
    (["--problem", "clique", "branch", "-", "--k", "3"], G8, 0, "d0394427242812d1"),
    (["dual", "-", "--epsilon", "1/2"], G6, 0, "159d99a989445003"),
    (["--format", "text", "dual", "-", "--epsilon", "1/2"], G6, 0, "2a1d5c1c3bd77747"),
    (["dual", "-", "--epsilon", "1/10"], G6, 0, "e7c45f0e124240ca"),
    (["dual", "-", "--epsilon", "1/2", "--brute-cap", "8"], G10, 3, "2ef41154e1e04bef"),
    (["--problem", "set-cover", "dual", "-", "--epsilon", "1/2"], UNCOVERABLE_SYS, 1, "333923c47915f359"),
    (["--problem", "dominating-set", "dual", "-", "--epsilon", "1/2"], G6B, 0, "93b2b65d02528281"),
    (["--format", "text", "--problem", "set-cover", "dual", "-", "--epsilon", "1/2"], S6, 0, "95c4c556af6c4de7"),
    (["dual", "-", "--epsilon", "1/2", "--force-brute"], G6, 0, "d70fabe8cc8fcbf7"),
    (["check-intersective", "-"], TRIANGLE_DIMACS, 0, "b8345d79f3f8a09a"),
    (["--format", "text", "check-intersective", "-"], TRIANGLE_DIMACS, 0, "554e81a9fb2319f3"),
    (["--problem", "independent-set", "check-intersective", "-"], G6_NOT, 1, "acab04fb6cc1a279"),
    (["check-intersective", "-", "--budget", "5"], G10B, 3, "af43bacd5a10c8b7"),
    (["--problem", "set-cover", "check-intersective", "-"], UNCOVERABLE_SYS, 1, "851302b56ba64ec5"),
    (["--format", "text", "--problem", "clique", "check-intersective", "-"], G8, 0, "de8012591329f566"),
    (["--seed", "3", "experiment", "--run", "solve", "--count", "3", "--n", "6"], None, 0, "b60aa1bdd9b7c5ca"),
    (["--seed", "3", "experiment", "--run", "branch", "--count", "3", "--n", "7"], None, 0, "cfab784d4c268185"),
    (["--seed", "11", "experiment", "--run", "dual", "--count", "3", "--n", "8", "--epsilon", "1/2"], None, 0, "34c15da36370ef0a"),
    (["--seed", "5", "experiment", "--run", "check-intersective", "--count", "3", "--n", "6"], None, 0, "99e162e7dfe498e0"),
    (["--format", "text", "--problem", "set-cover", "--seed", "2", "experiment", "--run", "branch", "--count", "3"], None, 0, "c394f76afdb0b089"),
    (["--format", "text", "--seed", "4", "experiment", "--run", "dual", "--count", "2", "--n", "7"], None, 0, "2ff2b01d801d6811"),
    (["--seed", "9", "gen", "--model", "gnp", "--n", "8"], None, 0, "b79ff584140d4a96"),
    (["--seed", "9", "gen", "--model", "setsystem"], None, 0, "040ac10b534eae4d"),
]


@pytest.mark.parametrize("argv,stdin_text,code,digest", PINNED)
def test_stdout_pinned(run, argv, stdin_text, code, digest):
    got_code, out, _ = run(argv, stdin_text)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest)


def test_instance_file_is_closed(run, tmp_path):
    path = tmp_path / "triangle.dimacs"
    path.write_text(TRIANGLE_DIMACS)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, out, _ = run(["solve", str(path)])
    assert code == 0 and json.loads(out)["value"] == 2
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


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
    set_kind = kind in SET_KINDS
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
    # The same call in text form: same exit code, one line per record, and
    # each line's key= fields in the JSON record's key order.
    text_code, text_out, _ = _call(["--format", "text"] + argv, text)
    assert text_code == code
    assert len(text_out.splitlines()) == len(out.splitlines())
    for json_line, text_line in zip(out.splitlines(), text_out.splitlines()):
        keys = [field.split("=", 1)[0] for field in text_line.split("\t")]
        assert keys == list(json.loads(json_line))
