from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import subsetfpt as sf
from conftest import atlas_upto, random_graph, random_system

TRIANGLE = sf.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = sf.Graph.from_edges(3, [(0, 1), (1, 2)])
C5 = sf.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])

F = Fraction

ratios_min = st.fractions(min_value=F(1), max_value=F(10))
ratios_max = st.fractions(min_value=F(1, 100), max_value=F(1))
epsilons = st.fractions(min_value=F(1, 100), max_value=F(1))


class TestThresholds:
    def test_min_examples(self):
        assert sf.threshold_min(F(2), F(1, 2)) == 3
        assert sf.threshold_min(F(1), F(1, 3)) == 1
        assert sf.threshold_min(F(4), F(1, 4)) == 13

    def test_max_examples(self):
        assert sf.threshold_max(F(1, 2), F(1, 2)) == 2
        assert sf.threshold_max(F(1), F(1, 4)) == 1
        assert sf.threshold_max(F(1, 10), F(1, 2)) == F(14, 5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sf.threshold_min(F(1, 2), F(1, 2))
        with pytest.raises(ValueError):
            sf.threshold_min(F(2), F(0))
        with pytest.raises(ValueError):
            sf.threshold_max(F(2), F(1, 2))
        with pytest.raises(ValueError):
            sf.threshold_max(F(1, 2), F(3, 2))

    @given(ratios_max, epsilons)
    def test_max_never_exceeds_cap(self, rho, eps):
        assert sf.threshold_max(rho, eps) <= F(2) / eps

    @given(ratios_min, ratios_min, epsilons)
    def test_min_monotone_in_ratio(self, a, b, eps):
        lo, hi = sorted((a, b))
        assert sf.threshold_min(lo, eps) <= sf.threshold_min(hi, eps)

    @given(ratios_max, ratios_max, epsilons)
    def test_max_antitone_in_ratio(self, a, b, eps):
        lo, hi = sorted((a, b))
        assert sf.threshold_max(lo, eps) >= sf.threshold_max(hi, eps)

    @given(ratios_min, epsilons, epsilons)
    def test_min_antitone_in_epsilon(self, rho, a, b):
        lo, hi = sorted((a, b))
        assert sf.threshold_min(rho, lo) >= sf.threshold_min(rho, hi)

    @given(ratios_min, epsilons)
    def test_min_at_least_one(self, rho, eps):
        assert sf.threshold_min(rho, eps) >= 1


class TestSchemaConfig:
    def test_epsilon_zero_rejected(self):
        with pytest.raises(ValueError):
            sf.SchemaConfig(epsilon=F(0))

    def test_epsilon_above_one_rejected(self):
        with pytest.raises(ValueError):
            sf.SchemaConfig(epsilon=F(3, 2))

    def test_float_epsilon_is_its_decimal(self):
        assert sf.SchemaConfig(epsilon=0.1).epsilon == F(1, 10)

    def test_thresholds_read_floats_as_the_config_does(self):
        eps = sf.SchemaConfig(epsilon=0.1).epsilon
        assert sf.threshold_min(2, 0.1) == sf.threshold_min(2, eps) == 11
        assert sf.threshold_max(0.5, 0.1) == sf.threshold_max(F(1, 2), F(1, 10)) == 6
        assert sf.threshold_min(1.1, 0.5) == F(6, 5)

    def test_brute_cap_validated(self):
        with pytest.raises(ValueError):
            sf.SchemaConfig(epsilon=F(1, 2), brute_cap=0)


def maximal_packing(p):
    """The sets, in index order, that meet none taken before them."""
    taken, used = [], 0
    for i, s in enumerate(p.data.sets):
        if not s & used:
            taken.append(i)
            used |= s
    return frozenset(taken)


def exact_oracle(goal):
    def run(p):
        res = sf.brute_force_optimum(p)
        assert isinstance(res, sf.EvaluatedSolution)
        return res.members

    return sf.ApproxOracle(name="exact", goal=goal, run=run, ratio=lambda p: F(1))


class TestDualApprox:
    def test_goal_mismatch_rejected(self):
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, TRIANGLE)
        with pytest.raises(ValueError):
            sf.dual_approx(p, sf.ORACLES["matching-vc"], sf.SchemaConfig(F(1, 2)))

    def test_infeasible_oracle_output_rejected(self):
        # greedy-mis with no kind, as a caller may build it, has clique's
        # goal; its 22-vertex independent set would have been complemented
        # into an 18-vertex "dual" answer
        oracle = replace(sf.ORACLES["greedy-mis"], kind=None)
        p = sf.make_problem(sf.ProblemKind.CLIQUE, random_graph(40, 0.05, 3))
        with pytest.raises(sf.approx.InfeasibleOutput, match="greedy-mis.*clique"):
            sf.dual_approx(p, oracle, sf.SchemaConfig(F(1)))

    def test_exact_min_oracle_always_takes_approx_path(self):
        # ratio 1 makes the dispatch threshold 1, so n >= k' always holds
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, TRIANGLE)
        out = sf.dual_approx(p, exact_oracle(sf.Goal.MINIMIZE), sf.SchemaConfig(F(1, 2)))
        assert out.path is sf.SchemaPath.APPROX
        assert out.dual_value == 1  # n - tau = 3 - 2
        assert out.guarantee == F(1, 2)
        d = sf.dualize(p)
        assert sf.is_feasible(d, out.dual_solution)

    def test_max_c5_falls_to_brute(self):
        # greedy MIS on C5 gives k' = 2 with ratio 1/3; the packing bound is
        # 3 (two edges and a vertex), below ceil(2 / (1/3)) = 6, the threshold
        # is 7/3, and 5 < 7/3 * 3 so the schema must search the dual (vertex
        # cover) exhaustively
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, C5)
        out = sf.dual_approx(p, sf.ORACLES["greedy-mis"], sf.SchemaConfig(F(1, 2)))
        assert (out.diagnostics["k_prime"], out.diagnostics["surrogate_k"]) == (2, 3)
        assert out.path is sf.SchemaPath.BRUTE
        assert out.exact
        assert out.dual_value == 3
        assert out.guarantee == 1

    def test_set_cover_approx_path_construction(self):
        # one set covers everything and nine decoys exist: greedy takes one
        # set (ratio H_1 = 1, threshold 1) and m = 10 >= 1
        sys = sf.SetSystem.from_lists(1, [[0]] * 10)
        p = sf.make_problem(sf.ProblemKind.SET_COVER, sys)
        out = sf.dual_approx(
            p, sf.ORACLES["greedy-set-cover"], sf.SchemaConfig(F(1, 2))
        )
        assert out.path is sf.SchemaPath.APPROX
        assert out.dual_value == 9
        assert not out.exact

    def test_force_brute(self):
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, TRIANGLE)
        out = sf.dual_approx(
            p,
            exact_oracle(sf.Goal.MINIMIZE),
            sf.SchemaConfig(F(1, 2), force_brute=True),
        )
        assert out.path is sf.SchemaPath.BRUTE
        assert out.dual_value == 1

    @pytest.mark.parametrize("force_brute", [False, True])
    def test_budget_exceeded(self, force_brute):
        # n = 12 is past brute_cap = 5, and the approximation test fails:
        # 12 < 809/9 * 4.  Brute force refuses the universe itself.
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, random_graph(12, 0.6, 77))
        cfg = sf.SchemaConfig(F(1, 100), brute_cap=5, force_brute=force_brute)
        out = sf.dual_approx(p, sf.ORACLES["greedy-mis"], cfg)
        assert out == sf.SchemaOutcome(sf.SchemaPath.BUDGET_EXCEEDED, {
            "n": 12, "k_prime": 3, "rho": "1/9", "epsilon": "1/100", "threshold": "809/9",
            "surrogate_k": 4, "dual_parameter": 9})

    def test_brute_path_at_brute_cap_n(self):
        # n <= brute_cap is the exhaustive search's own budget, so n equal
        # to the cap still answers exactly
        g = random_graph(12, 0.6, 77)
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, g)
        out = sf.dual_approx(p, sf.ORACLES["greedy-mis"], sf.SchemaConfig(F(1, 100), brute_cap=12))
        opt = sf.brute_force_optimum(sf.dualize(p))
        assert (out.path, out.exact, out.dual_value) == (sf.SchemaPath.BRUTE, True, opt.value)

    def test_upper_hint_can_enable_approx_path(self):
        # k'/rho alone is too pessimistic; the packing bound (the centre,
        # then the five pairwise non-adjacent leaves: 2, which is omega)
        # flips the dispatch
        g = sf.Graph.from_edges(
            6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
        )  # star: alpha = 5
        p = sf.make_problem(sf.ProblemKind.CLIQUE, g)
        oracle = sf.ORACLES["greedy-clique"]
        assert sf.packing_upper_bound(p) == 2
        # omega = 2; threshold_max(1/6, 1) = 11/6, and 6 >= 11/6 * 2
        out = sf.dual_approx(p, oracle, sf.SchemaConfig(F(1)))
        assert out.path is sf.SchemaPath.APPROX
        assert out.diagnostics["surrogate_k"] == 2

    def test_max_surrogate_rounds_k_over_rho_up(self):
        # k' = 3 at ratio 2/3 bounds the optimum by ceil(9/2) = 5, below n
        # and the edgeless graph's own bound; threshold_max(2/3, 1) = 4/3
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, sf.Graph.from_edges(10, []))
        oracle = sf.ApproxOracle(name="three", goal=sf.Goal.MAXIMIZE,
                                 run=lambda q: frozenset({0, 1, 2}), ratio=lambda q: F(2, 3))
        out = sf.dual_approx(p, oracle, sf.SchemaConfig(F(1)))
        assert (out.diagnostics["surrogate_k"], out.diagnostics["threshold"]) == (5, "4/3")
        assert out.path is sf.SchemaPath.APPROX

    @pytest.mark.parametrize("seed", range(5))
    def test_clique_bound_takes_approx_path_on_larger_graphs(self, seed):
        # Above brute_cap, k'/rho alone exceeds n/threshold and the schema
        # gave up; the packing bound brings the surrogate down.
        p = sf.make_problem(sf.ProblemKind.CLIQUE, random_graph(24, 0.3, seed))
        out = sf.dual_approx(p, sf.ORACLES["greedy-clique"], sf.SchemaConfig(F(1, 2)))
        assert out.path is sf.SchemaPath.APPROX
        assert out.diagnostics["surrogate_k"] <= sf.packing_upper_bound(p)
        assert sf.is_feasible(sf.dualize(p), out.dual_solution)

    @pytest.mark.parametrize("seed", range(40))
    def test_min_guarantee_sound(self, seed):
        g = random_graph((seed % 8) + 3, [0.3, 0.6][seed % 2], 9000 + seed)
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, g)
        eps = [F(1, 4), F(1, 2), F(1)][seed % 3]
        out = sf.dual_approx(p, sf.ORACLES["matching-vc"], sf.SchemaConfig(eps))
        d = sf.dualize(p)
        opt = sf.brute_force_optimum(d)
        assert isinstance(opt, sf.EvaluatedSolution)
        assert out.path in (sf.SchemaPath.APPROX, sf.SchemaPath.BRUTE)
        assert sf.is_feasible(d, out.dual_solution)
        # dual of a minimization problem is maximized: achieved >= (1-eps)*opt
        assert out.dual_value >= (1 - eps) * opt.value
        if out.path is sf.SchemaPath.BRUTE:
            assert out.dual_value == opt.value

    @pytest.mark.parametrize("seed", range(40))
    def test_max_guarantee_sound(self, seed):
        g = random_graph((seed % 8) + 3, [0.3, 0.6][seed % 2], 9500 + seed)
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, g)
        eps = [F(1, 4), F(1, 2), F(1)][seed % 3]
        out = sf.dual_approx(p, sf.ORACLES["greedy-mis"], sf.SchemaConfig(eps))
        d = sf.dualize(p)
        opt = sf.brute_force_optimum(d)
        assert isinstance(opt, sf.EvaluatedSolution)
        assert out.path in (sf.SchemaPath.APPROX, sf.SchemaPath.BRUTE)
        assert sf.is_feasible(d, out.dual_solution)
        # dual of a maximization problem is minimized: achieved <= (1+eps)*opt
        assert out.dual_value <= (1 + eps) * opt.value

    @pytest.mark.parametrize("seed", range(30))
    def test_set_cover_guarantee_sound(self, seed):
        sys = random_system((seed % 6) + 2, (seed % 8) + 2, 3, 9900 + seed)
        p = sf.make_problem(sf.ProblemKind.SET_COVER, sys)
        eps = F(1, 3)
        try:
            sf.brute_force_optimum(p)
        except sf.InfeasibleInstance:
            with pytest.raises(sf.InfeasibleInstance):
                sf.dual_approx(p, sf.ORACLES["greedy-set-cover"], sf.SchemaConfig(eps))
            return
        out = sf.dual_approx(p, sf.ORACLES["greedy-set-cover"], sf.SchemaConfig(eps))
        d = sf.dualize(p)
        opt = sf.brute_force_optimum(d)
        assert out.dual_value >= (1 - eps) * opt.value

    @pytest.mark.parametrize("seed", range(20))
    def test_set_packing_guarantee_sound(self, seed):
        # A maximal packing meets every optimal set, and each of its sets
        # meets at most t disjoint ones: ratio 1/t for sets of size <= t.
        sys = random_system((seed % 6) + 3, (seed % 8) + 3, 3, 12_000 + seed)
        p = sf.make_problem(sf.ProblemKind.SET_PACKING, sys)
        t = max(1, max(map(int.bit_count, sys.sets)))
        oracle = sf.ApproxOracle(name="maximal-packing", goal=sf.Goal.MAXIMIZE,
                                 run=maximal_packing, ratio=lambda q: F(1, t))
        eps = [F(1, 4), F(1, 2), F(1)][seed % 3]
        out = sf.dual_approx(p, oracle, sf.SchemaConfig(eps))
        d = sf.dualize(p)
        opt = sf.brute_force_optimum(d)
        assert sf.is_feasible(d, out.dual_solution)
        # dual of a maximization problem is minimized: achieved <= (1+eps)*opt
        assert out.dual_value <= (1 + eps) * opt.value

    @pytest.mark.parametrize("seed", range(30))
    def test_approx_dispatch_is_conservative(self, seed):
        """Whenever the observable test routes to the approximation path, the
        unobservable condition on the true optimum holds too."""
        g = random_graph((seed % 8) + 3, 0.5, 10_000 + seed)
        for kind, name in (
            (sf.ProblemKind.VERTEX_COVER, "matching-vc"),
            (sf.ProblemKind.INDEPENDENT_SET, "greedy-mis"),
        ):
            p = sf.make_problem(kind, g)
            oracle = sf.ORACLES[name]
            eps = F(1, 2)
            out = sf.dual_approx(p, oracle, sf.SchemaConfig(eps))
            if out.path is not sf.SchemaPath.APPROX:
                continue
            k_true = sf.brute_force_optimum(p).value
            rho = oracle.ratio(p)
            c = (
                sf.threshold_min(rho, eps)
                if p.goal is sf.Goal.MINIMIZE
                else sf.threshold_max(rho, eps)
            )
            assert p.universe_size >= c * k_true


def _clique_partition_ref(conflicts):
    """Reference for packing_upper_bound over plain sets, conflicts[e] being
    the set of elements e conflicts with: start each clique at the element
    with the fewest remaining conflicts, lowest first on ties, and add every
    remaining element, in increasing order, that conflicts with all members."""
    alive, count = set(range(len(conflicts))), 0
    while alive:
        clique = {min(alive, key=lambda e: (len(conflicts[e] & alive), e))}
        for f in sorted(alive - clique):
            if all(f in conflicts[c] for c in clique):
                clique.add(f)
        alive -= clique
        count += 1
    return count


class TestPackingUpperBound:
    def test_independent_set_star(self):
        g = sf.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, g)
        assert sf.packing_upper_bound(p) == 3  # the edge {1, 0}, then 2 and 3

    def test_clique_triangle(self):
        p = sf.make_problem(sf.ProblemKind.CLIQUE, TRIANGLE)
        assert sf.packing_upper_bound(p) == 3  # no conflicts: three singletons

    def test_kind_without_conflicts_gets_alive(self):
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, PATH3)
        assert sf.packing_upper_bound(p) == 3

    @pytest.mark.parametrize("seed", range(40))
    def test_bound_is_valid(self, seed):
        g = random_graph((seed % 8) + 2, [0.2, 0.5, 0.8][seed % 3], 11_000 + seed)
        for kind in (sf.ProblemKind.INDEPENDENT_SET, sf.ProblemKind.CLIQUE):
            p = sf.make_problem(kind, g)
            assert sf.packing_upper_bound(p) >= sf.brute_force_optimum(p).value

    def test_bound_is_valid_on_atlas(self, atlas):
        for g in atlas_upto(atlas, 6):
            for kind in (sf.ProblemKind.INDEPENDENT_SET, sf.ProblemKind.CLIQUE):
                p = sf.make_problem(kind, g)
                assert sf.packing_upper_bound(p) >= sf.brute_force_optimum(p).value, (kind, g)

    def test_bound_matches_plain_set_reference(self, atlas):
        # Pins the picks, lowest id on ties, not only the bound's validity.
        for g in atlas_upto(atlas, 6):
            nbs = [{v for e in g.edges if u in e for v in e if v != u} for u in range(g.n)]
            for kind, conflicts in ((sf.ProblemKind.INDEPENDENT_SET, nbs),
                                    (sf.ProblemKind.CLIQUE, [set(range(g.n)) - nb - {u}
                                                             for u, nb in enumerate(nbs)])):
                p = sf.make_problem(kind, g)
                assert sf.packing_upper_bound(p) == _clique_partition_ref(conflicts), (kind, g)
        for seed in range(40):
            sys = random_system((seed % 7) + 2, (seed % 10) + 1, 4, 13_000 + seed)
            members = [set(sf.iter_bits(m)) for m in sys.sets]
            conflicts = [{j for j, t in enumerate(members) if j != i and s & t}
                         for i, s in enumerate(members)]
            p = sf.make_problem(sf.ProblemKind.SET_PACKING, sys)
            assert sf.packing_upper_bound(p) == _clique_partition_ref(conflicts)

    @pytest.mark.parametrize("seed", range(40))
    def test_bound_is_valid_on_set_packing(self, seed):
        sys = random_system((seed % 7) + 2, (seed % 10) + 1, 4, 13_000 + seed)
        p = sf.make_problem(sf.ProblemKind.SET_PACKING, sys)
        assert sf.packing_upper_bound(p) >= sf.brute_force_optimum(p).value

    @pytest.mark.parametrize("seed", range(12))
    def test_bound_is_valid_two_levels_deep(self, seed):
        # The bound reads alive: each sub-instance's optimum is what it can
        # add to its chosen elements.
        g = random_graph(7, [0.3, 0.6][seed % 2], 14_000 + seed)
        sys = random_system(6, 7, 3, 14_000 + seed)
        for p in (sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, g),
                  sf.make_problem(sf.ProblemKind.CLIQUE, g),
                  sf.make_problem(sf.ProblemKind.SET_PACKING, sys)):
            for e in sf.iter_bits(p.alive):
                q = p.restrict(e)
                subs = [q] + [q.restrict(f) for f in sf.iter_bits(q.alive)]
                for r in subs:
                    assert sf.packing_upper_bound(r) >= sf.brute_force_optimum(r).value
