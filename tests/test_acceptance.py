"""Acceptance suite: ten numbered criteria, one test (and one verbose
pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v` — the verbose line for each
test_criterion_* function is the per-criterion verdict.  Timed criteria
assert their own wall-clock budgets.
"""

import io
import json
import random
import statistics
import sys
import time
from fractions import Fraction

import pytest

import subsetfpt as sf
from subsetfpt.cli import main as cli_main
from subsetfpt.io import generate_gnp, generate_setsystem, render_graph
from conftest import all_graphs_upto, atlas_upto, random_graph, random_system

F = Fraction


def _announce(num, detail):
    print(f"[criterion {num:02d}] PASS — {detail}")


def _restriction_sound(p):
    # Sub-instances keep root ids: I(e) is p plus the masks alive and chosen.
    full = (1 << p.universe_size) - 1
    for e in range(p.universe_size):
        child = p.restrict(e)
        rest = full & ~(1 << e)
        for mask in range(1 << p.universe_size):
            if mask & rest != mask:
                continue
            if child.feasible_mask(mask) != p.feasible_mask(mask | (1 << e)):
                return False
    return True


def test_criterion_01_restriction_soundness(atlas):
    """All restriction-capable kinds: S' feasible for I(e) iff S'+{e}
    feasible for I, exhaustively over all S' within U - {e}; graphs n <= 6
    and 200 random set systems; <= 60 s."""
    started = time.perf_counter()
    graph_kinds = [
        sf.ProblemKind.VERTEX_COVER,
        sf.ProblemKind.INDEPENDENT_SET,
        sf.ProblemKind.CLIQUE,
        sf.ProblemKind.DOMINATING_SET,
    ]
    checked = 0
    # every labelled graph with n <= 5, plus all n = 6 graphs up to
    # isomorphism (the property is invariant under vertex relabelling)
    graphs = list(all_graphs_upto(5)) + [g for g in atlas_upto(atlas, 6) if g.n == 6]
    for g in graphs:
        for kind in graph_kinds:
            assert _restriction_sound(sf.make_problem(kind, g)), (kind, sorted(g.edges))
            checked += 1
    for i in range(200):
        s = random_system(
            n_ground=(i % 8) + 1, m=(i % 8) + 1, max_size=4, seed=20_000 + i
        )
        for kind in (sf.ProblemKind.SET_COVER, sf.ProblemKind.SET_PACKING):
            assert _restriction_sound(sf.make_problem(kind, s)), (kind, s)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed <= 60, f"took {elapsed:.1f}s (budget 60s)"
    _announce(1, f"{checked} (instance, kind) pairs sound in {elapsed:.1f}s")


def test_criterion_02_branching_exactness_vertex_cover():
    """branch_solve_min with the matching oracle agrees with brute force on
    500 GNP(n <= 14, p in {0.2, 0.5}) graphs at k = opt and k = opt - 1;
    <= 120 s."""
    started = time.perf_counter()
    oracle = sf.ORACLES["matching-vc"]
    rng = random.Random(42)
    for i in range(500):
        n = rng.randint(4, 14)
        p_edge = rng.choice([0.2, 0.5])
        g = generate_gnp(n, p_edge, 1000 + i)
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, g)
        opt = sf.brute_force_optimum(p)
        assert isinstance(opt, sf.EvaluatedSolution)
        rep = sf.branch_solve_min(p, oracle, sf.BranchConfig(budget_k=opt.value))
        assert rep.outcome is sf.BranchOutcome.FOUND, (i, n, p_edge)
        assert rep.value == opt.value, (i, n, p_edge)
        if opt.value > 0:
            below = sf.branch_solve_min(
                p, oracle, sf.BranchConfig(budget_k=opt.value - 1)
            )
            assert below.outcome is sf.BranchOutcome.NO_INSTANCE, (i, n, p_edge)
    elapsed = time.perf_counter() - started
    assert elapsed <= 120, f"took {elapsed:.1f}s (budget 120s)"
    _announce(2, f"500/500 graphs agree (both k values) in {elapsed:.1f}s")


def test_criterion_03_intersectivity_verifier(atlas):
    """The matching-vc oracle reported intersective on 100% of checked graphs
    with n <= 8 and >= 1 edge (exhaustive to n = 7 up to isomorphism, 300
    random at n = 8); the minimal-cover counterexample on the 3-path is
    reported not intersective."""
    oracle = sf.ORACLES["matching-vc"]
    graphs = (
        list(all_graphs_upto(5))
        + list(atlas_upto(atlas, 7))
        + [random_graph(8, [0.2, 0.5, 0.8][i % 3], 30_000 + i) for i in range(300)]
    )
    checked = 0
    for g in graphs:
        if not g.edges:
            continue
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, g)
        rep = sf.verify_intersective(p, oracle)
        assert rep.verdict is sf.Verdict.INTERSECTIVE, sorted(g.edges)
        checked += 1
    # documented counterexample: on the path a-b-c the minimal cover {b}
    # misses the unique maximum minimal vertex cover {a, c}
    path3 = sf.Graph.from_edges(3, [(0, 1), (1, 2)])
    bad = sf.ApproxOracle(
        name="path-minimal-cover",
        goal=sf.Goal.MAXIMIZE,
        run=lambda q: frozenset({1}),
        ratio=lambda q: F(1, 3),
    )
    p = sf.make_problem(sf.ProblemKind.MAX_MINIMAL_VERTEX_COVER, path3)
    rep = sf.verify_intersective(p, bad)
    assert rep.verdict is sf.Verdict.NOT_INTERSECTIVE
    _announce(3, f"{checked}/{checked} intersective; counterexample flagged")


EPSILONS = [F(1, 10), F(1, 4), F(1, 2)]


def _check_dual_guarantee(p, oracle, eps):
    out = sf.dual_approx(p, oracle, sf.SchemaConfig(eps, brute_cap=p.universe_size))
    assert out.path in (sf.SchemaPath.APPROX, sf.SchemaPath.BRUTE)
    d = sf.dualize(p)
    opt = sf.brute_force_optimum(d)
    assert isinstance(opt, sf.EvaluatedSolution)
    assert sf.is_feasible(d, out.dual_solution)
    if out.path is sf.SchemaPath.BRUTE:
        assert out.dual_value == opt.value
    elif p.goal is sf.Goal.MINIMIZE:
        assert out.dual_value >= (1 - eps) * opt.value
    else:
        assert out.dual_value <= (1 + eps) * opt.value
    return out.path


def test_criterion_04_dual_guarantee_minimization():
    """Min set cover and min dominating set with greedy oracles: every
    approximation-path outcome is within (1 - eps) of the dual optimum and
    every brute-path outcome is exact, over 300 instances, eps in
    {0.1, 0.25, 0.5}; <= 180 s."""
    started = time.perf_counter()
    paths = {sf.SchemaPath.APPROX: 0, sf.SchemaPath.BRUTE: 0}
    for i in range(150):
        s = generate_setsystem(
            (i % 10) + 1, (i % 16) + 1, max_size=4, seed=40_000 + i
        )
        p = sf.make_problem(sf.ProblemKind.SET_COVER, s)
        for eps in EPSILONS:
            paths[_check_dual_guarantee(p, sf.ORACLES["greedy-set-cover"], eps)] += 1
    for i in range(150):
        g = random_graph((i % 14) + 3, [0.2, 0.5][i % 2], 41_000 + i)
        p = sf.make_problem(sf.ProblemKind.DOMINATING_SET, g)
        for eps in EPSILONS:
            paths[_check_dual_guarantee(p, sf.ORACLES["greedy-dominating"], eps)] += 1
    elapsed = time.perf_counter() - started
    assert elapsed <= 180, f"took {elapsed:.1f}s (budget 180s)"
    assert paths[sf.SchemaPath.APPROX] > 0 and paths[sf.SchemaPath.BRUTE] > 0
    _announce(
        4,
        f"900 checks, 0 violations ({paths[sf.SchemaPath.APPROX]} approx / "
        f"{paths[sf.SchemaPath.BRUTE]} brute) in {elapsed:.1f}s",
    )


def test_criterion_05_dual_guarantee_maximization():
    """Max independent set and max clique with greedy oracles: symmetric
    check dual_value <= (1 + eps) * opt over the same instance budget."""
    paths = {sf.SchemaPath.APPROX: 0, sf.SchemaPath.BRUTE: 0}
    for i in range(150):
        g = random_graph((i % 14) + 3, [0.2, 0.5, 0.8][i % 3], 42_000 + i)
        for kind, name in (
            (sf.ProblemKind.INDEPENDENT_SET, "greedy-mis"),
            (sf.ProblemKind.CLIQUE, "greedy-clique"),
        ):
            p = sf.make_problem(kind, g)
            for eps in EPSILONS:
                paths[_check_dual_guarantee(p, sf.ORACLES[name], eps)] += 1
    assert paths[sf.SchemaPath.BRUTE] > 0
    _announce(
        5,
        f"900 checks, 0 violations ({paths[sf.SchemaPath.APPROX]} approx / "
        f"{paths[sf.SchemaPath.BRUTE]} brute)",
    )


def test_criterion_06_threshold_units():
    """Exact-rational threshold identities and the 2/eps cap over the full
    (rho, eps) grid; zero tolerance."""
    assert sf.threshold_min(F(2), F(1, 2)) == 3
    for k in range(1, 21):
        assert sf.threshold_min(F(1), F(k, 20)) == 1
    grid = 0
    for rho_num in range(1, 11):  # rho = 0.1 .. 1.0
        for eps_num in range(1, 21):  # eps = 0.05 .. 1.0
            rho, eps = F(rho_num, 10), F(eps_num, 20)
            assert sf.threshold_max(rho, eps) <= F(2) / eps
            grid += 1
    _announce(6, f"identities exact; cap holds on all {grid} grid points")


def test_criterion_07_duality_identities():
    """opt(problem) + opt(dual) = n, and max minimal vertex cover equals
    n minus min independent dominating set, on 500 sampled graphs n <= 10."""
    rng = random.Random(7)
    for i in range(500):
        n = rng.randint(1, 10)
        g = generate_gnp(n, rng.choice([0.2, 0.5, 0.8]), 50_000 + i)
        kind = [
            sf.ProblemKind.VERTEX_COVER,
            sf.ProblemKind.INDEPENDENT_SET,
            sf.ProblemKind.DOMINATING_SET,
        ][i % 3]
        p = sf.make_problem(kind, g)
        a = sf.brute_force_optimum(p)
        b = sf.brute_force_optimum(sf.dualize(p))
        assert isinstance(a, sf.EvaluatedSolution)
        assert isinstance(b, sf.EvaluatedSolution)
        assert a.value + b.value == n, (i, kind)
        mmvc = sf.brute_force_optimum(
            sf.make_problem(sf.ProblemKind.MAX_MINIMAL_VERTEX_COVER, g)
        )
        mids = sf.brute_force_optimum(
            sf.make_problem(sf.ProblemKind.MIN_INDEPENDENT_DOMINATING_SET, g)
        )
        assert mmvc.value == n - mids.value, i
    _announce(7, "both identities hold on all 500 graphs")


def test_criterion_08_prune_safety():
    """Pruned and unpruned branching return identical verdicts and values on
    200 graphs with n <= 10, at k = opt and k = opt - 1."""
    rng = random.Random(8)
    for i in range(200):
        n = rng.randint(3, 10)
        g = generate_gnp(n, rng.choice([0.2, 0.5]), 60_000 + i)
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, g)
        opt = sf.brute_force_optimum(p)
        for k in {opt.value, max(opt.value - 1, 0)}:
            on = sf.branch_solve_min(
                p, sf.ORACLES["matching-vc"], sf.BranchConfig(budget_k=k)
            )
            off = sf.branch_solve_min(
                p,
                sf.ORACLES["matching-vc"],
                sf.BranchConfig(budget_k=k, prune_enabled=False),
            )
            assert on.outcome == off.outcome, (i, k)
            assert on.value == off.value, (i, k)
    _announce(8, "verdicts identical on all 200 graphs (both k values)")


def test_criterion_09_performance_floor():
    """Exhaustive search at n = 20 in <= 5 s; pruned branching on
    GNP(50, 0.1) with k = 8 in <= 1 s median."""
    g20 = generate_gnp(20, 0.5, 9)
    p20 = sf.make_problem(sf.ProblemKind.VERTEX_COVER, g20)
    started = time.perf_counter()
    res = sf.brute_force_optimum(p20)
    brute_s = time.perf_counter() - started
    assert isinstance(res, sf.EvaluatedSolution)
    assert brute_s <= 5, f"brute force took {brute_s:.2f}s (budget 5s)"

    times = []
    for seed in range(5):
        g = generate_gnp(50, 0.1, 70_000 + seed)
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, g)
        started = time.perf_counter()
        sf.branch_solve_min(p, sf.ORACLES["matching-vc"], sf.BranchConfig(budget_k=8))
        times.append(time.perf_counter() - started)
    med = statistics.median(times)
    assert med <= 1, f"median branch time {med:.2f}s (budget 1s)"
    _announce(9, f"brute n=20 in {brute_s:.2f}s; branch median {med * 1000:.0f}ms")


def test_criterion_10_cli_determinism(capsys, monkeypatch):
    """Every CLI subcommand with a fixed seed emits byte-identical stdout
    across two consecutive runs."""
    triangle = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
    cases = [
        (["solve", "-"], triangle),
        (["approx", "-"], triangle),
        (["branch", "-", "--k", "2"], triangle),
        (["dual", "-", "--epsilon", "1/2"], triangle),
        (["check-intersective", "-"], triangle),
        (["--seed", "9", "gen", "--model", "gnp", "--n", "8"], None),
        (["--seed", "9", "gen", "--model", "setsystem"], None),
        (
            ["--seed", "9", "experiment", "--run", "dual", "--count", "3",
             "--n", "6", "--epsilon", "1/2"],
            None,
        ),
    ]

    def run_once(argv, stdin_text):
        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = cli_main(argv)
        return code, capsys.readouterr().out

    for argv, stdin_text in cases:
        first = run_once(argv, stdin_text)
        second = run_once(argv, stdin_text)
        assert first == second, argv
        assert first[1], argv  # every subcommand produced output
    _announce(10, f"{len(cases)} subcommand invocations byte-identical")
