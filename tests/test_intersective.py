import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

import subsetfpt as sf
from conftest import (
    _sweep_optima,
    all_graphs_upto,
    atlas_upto,
    random_graph,
    random_system,
    recursion_limit_near_here,
)
from subsetfpt.io import generate_gnp, generate_setsystem

TRIANGLE = sf.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = sf.Graph.from_edges(3, [(0, 1), (1, 2)])
PATH6 = sf.Graph.from_edges(6, [(i, i + 1) for i in range(5)])

MATCHING = sf.ORACLES["matching-vc"]
MIS = sf.ORACLES["greedy-mis"]
CLIQUE = sf.ORACLES["greedy-clique"]


def vc(g):
    return sf.make_problem(sf.ProblemKind.VERTEX_COVER, g)


class TestBranchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            sf.BranchConfig(budget_k=-1)
        with pytest.raises(ValueError):
            sf.BranchConfig(budget_k=1, node_cap=0)


class TestBranchSolveMin:
    def test_path_k1_finds_center(self):
        rep = sf.branch_solve_min(vc(PATH3), MATCHING, sf.BranchConfig(budget_k=1))
        assert rep.outcome is sf.BranchOutcome.FOUND
        assert rep.solution == frozenset({1})

    def test_triangle_k1_no_instance(self):
        rep = sf.branch_solve_min(vc(TRIANGLE), MATCHING, sf.BranchConfig(budget_k=1))
        assert rep.outcome is sf.BranchOutcome.NO_INSTANCE

    def test_triangle_k2_matches_brute_force(self):
        rep = sf.branch_solve_min(vc(TRIANGLE), MATCHING, sf.BranchConfig(budget_k=2))
        assert rep.outcome is sf.BranchOutcome.FOUND and rep.value == 2

    def test_goal_mismatch_rejected(self):
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, PATH3)
        with pytest.raises(ValueError):
            sf.branch_solve_min(p, MATCHING, sf.BranchConfig(budget_k=1))

    def test_maximization_refused_with_its_own_oracle(self):
        # The oracle matches the problem, so only the engine's goal check refuses.
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, PATH3)
        with pytest.raises(ValueError, match="needs a minimization problem"):
            sf.branch_solve_min(p, MIS, sf.BranchConfig(budget_k=1))

    def test_empty_feasible_root_short_circuits(self):
        p = vc(sf.Graph.from_edges(4, []))
        rep = sf.branch_solve_min(p, MATCHING, sf.BranchConfig(budget_k=2))
        assert rep.outcome is sf.BranchOutcome.FOUND
        assert rep.solution == frozenset()
        assert rep.nodes_expanded == 1

    def test_node_cap_reported(self):
        g = random_graph(12, 0.5, 11)
        rep = sf.branch_solve_min(
            vc(g), MATCHING, sf.BranchConfig(budget_k=8, node_cap=3)
        )
        assert rep.outcome is sf.BranchOutcome.NODE_CAP_EXCEEDED

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_unrestrictable_problem_refused_before_the_first_node(self, k):
        # k = 0 needs no restriction, and is refused all the same.
        def run(q):
            raise AssertionError("oracle consulted")

        for kind, solve in ((sf.ProblemKind.MIN_INDEPENDENT_DOMINATING_SET, sf.branch_solve_min),
                            (sf.ProblemKind.MAX_MINIMAL_VERTEX_COVER, sf.branch_solve_max)):
            p = sf.make_problem(kind, TRIANGLE)
            oracle = sf.ApproxOracle(name="never", goal=p.goal, run=run,
                                     ratio=lambda q: Fraction(1))
            with pytest.raises(sf.UnsupportedRestriction,
                               match=rf"^{kind.value}\(n=3\) has no restriction operator$"):
                solve(p, oracle, sf.BranchConfig(budget_k=k))

    def test_exactness_all_graphs_up_to_5(self):
        for g in all_graphs_upto(5):
            p = vc(g)
            opt = sf.brute_force_optimum(p)
            rep = sf.branch_solve_min(p, MATCHING, sf.BranchConfig(budget_k=opt.value))
            assert rep.outcome is sf.BranchOutcome.FOUND
            assert rep.value == opt.value
            assert sf.is_feasible(p, rep.solution)
            if opt.value > 0:
                rep0 = sf.branch_solve_min(
                    p, MATCHING, sf.BranchConfig(budget_k=opt.value - 1)
                )
                assert rep0.outcome is sf.BranchOutcome.NO_INSTANCE

    @pytest.mark.parametrize("seed", range(30))
    def test_exactness_random_n8(self, seed):
        g = random_graph(8, [0.2, 0.5][seed % 2], 5000 + seed)
        p = vc(g)
        opt = sf.brute_force_optimum(p)
        rep = sf.branch_solve_min(p, MATCHING, sf.BranchConfig(budget_k=opt.value))
        assert rep.value == opt.value

    def test_found_solution_always_feasible_even_with_bad_oracle(self):
        # an oracle that is wrong about optimality still cannot make the
        # engine emit an infeasible solution
        bad = sf.ApproxOracle(
            name="first-two-vertices",
            goal=sf.Goal.MINIMIZE,
            run=lambda p: frozenset(range(min(2, p.universe_size))),
            ratio=lambda p: Fraction(p.universe_size if p.universe_size else 1),
        )
        for seed in range(10):
            g = random_graph(7, 0.4, 6000 + seed)
            p = vc(g)
            rep = sf.branch_solve_min(p, bad, sf.BranchConfig(budget_k=5))
            if rep.outcome is sf.BranchOutcome.FOUND:
                assert sf.is_feasible(p, rep.solution)
                assert len(rep.solution) <= 5

    @pytest.mark.parametrize("seed", range(20))
    def test_prune_does_not_change_verdicts(self, seed):
        g = random_graph(9, 0.4, 7000 + seed)
        p = vc(g)
        opt = sf.brute_force_optimum(p)
        for k in (opt.value, max(opt.value - 1, 0)):
            on = sf.branch_solve_min(p, MATCHING, sf.BranchConfig(budget_k=k))
            off = sf.branch_solve_min(
                p, MATCHING, sf.BranchConfig(budget_k=k, prune_enabled=False)
            )
            assert on.outcome == off.outcome
            assert on.value == off.value

    def test_arity_bounded_by_oracle_output(self):
        g = random_graph(10, 0.5, 8000)
        p = vc(g)
        rep = sf.branch_solve_min(p, MATCHING, sf.BranchConfig(budget_k=6))
        assert rep.max_arity <= len(MATCHING.run(p))


class TestBranchSolveMax:
    def test_path_k2(self):
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, PATH3)
        rep = sf.branch_solve_max(p, MIS, sf.BranchConfig(budget_k=2))
        assert rep.outcome is sf.BranchOutcome.FOUND
        assert rep.solution == frozenset({0, 2})

    def test_triangle_k2_no_instance(self):
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, TRIANGLE)
        rep = sf.branch_solve_max(p, MIS, sf.BranchConfig(budget_k=2))
        assert rep.outcome is sf.BranchOutcome.NO_INSTANCE

    def test_clique_triangle_k3(self):
        p = sf.make_problem(sf.ProblemKind.CLIQUE, TRIANGLE)
        rep = sf.branch_solve_max(p, CLIQUE, sf.BranchConfig(budget_k=3))
        assert rep.outcome is sf.BranchOutcome.FOUND
        assert rep.solution == frozenset({0, 1, 2})

    def test_goal_mismatch_rejected(self):
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, PATH3)
        with pytest.raises(ValueError):
            sf.branch_solve_max(p, MATCHING, sf.BranchConfig(budget_k=1))

    def test_minimization_refused_with_its_own_oracle(self):
        # The oracle matches the problem, so only the engine's goal check refuses.
        with pytest.raises(ValueError, match="needs a maximization problem"):
            sf.branch_solve_max(vc(PATH3), MATCHING, sf.BranchConfig(budget_k=1))

    def test_k0_trivially_found(self):
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, TRIANGLE)
        rep = sf.branch_solve_max(p, MIS, sf.BranchConfig(budget_k=0))
        assert rep.outcome is sf.BranchOutcome.FOUND and rep.solution == frozenset()

    @pytest.mark.parametrize("prune", [True, False])
    def test_room_passed_under_maximization(self, prune):
        """The engine passes a maximization oracle's bounded call each
        node's room, k minus its depth, as under minimization; with the
        prune off it passes None."""
        calls = []

        def recording(root, alive, chosen, room):
            calls.append((chosen.bit_count(), room))
            return MIS.bounded(root, alive, chosen, room)

        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, PATH6)
        cfg = sf.BranchConfig(budget_k=3, prune_enabled=prune)
        rep = sf.branch_solve_max(p, replace(MIS, bounded=recording), cfg)
        assert rep.outcome is sf.BranchOutcome.FOUND and rep.solution == frozenset({0, 2, 4})
        assert {depth for depth, _ in calls} == {0, 1, 2}
        assert all(room == (3 - depth if prune else None) for depth, room in calls), calls

    def test_never_claims_above_optimum(self, atlas):
        for g in atlas_upto(atlas, 6):
            p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, g)
            opt = sf.brute_force_optimum(p)
            rep = sf.branch_solve_max(p, MIS, sf.BranchConfig(budget_k=opt.value + 1))
            assert rep.outcome is sf.BranchOutcome.NO_INSTANCE

    def test_agreement_and_nonintersectivity_witnesses(self, atlas):
        """The engine finds a size-opt independent set exactly on the graphs
        where the greedy MIS oracle can conform to optimal completions.

        Disagreements exist (greedy MIS is not intersective); every one of
        them must be certified by the conformity check, never silent.
        """
        disagreements = 0
        for g in atlas_upto(atlas, 7):
            p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, g)
            opt = sf.brute_force_optimum(p)
            rep = sf.branch_solve_max(p, MIS, sf.BranchConfig(budget_k=opt.value))
            found = rep.outcome is sf.BranchOutcome.FOUND
            if found:
                assert rep.value == opt.value
                assert sf.is_feasible(p, rep.solution)
            conforming = _conforming_max(p, MIS, opt.value)
            assert found == conforming, sorted(g.edges)
            disagreements += int(not found)
        # the documented phenomenon: non-intersectivity shows up at this scale
        assert disagreements > 0


class TestCoveringKindsAgainstBruteForce:
    """Dominating set and set cover at k = opt: the engine raises nothing,
    and every FOUND solution is feasible with size opt.  Their greedy
    oracles are not intersective, so a NO verdict is allowed."""

    def _check(self, p):
        opt = sf.brute_force_optimum(p)
        assert isinstance(opt, sf.EvaluatedSolution)
        rep = sf.branch_solve_min(
            p, sf.DEFAULT_ORACLE[p.kind], sf.BranchConfig(budget_k=opt.value)
        )
        assert rep.outcome is not sf.BranchOutcome.NODE_CAP_EXCEEDED
        if rep.outcome is sf.BranchOutcome.FOUND:
            assert rep.value == opt.value
            assert sf.is_feasible(p, rep.solution)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dominating_set_all_graphs_up_to_6(self, n):
        for g in all_graphs_upto(n):
            if g.n == n:
                self._check(sf.make_problem(sf.ProblemKind.DOMINATING_SET, g))

    @pytest.mark.parametrize("seed", range(100))
    def test_set_cover_random_systems(self, seed):
        sys = random_system((seed % 9) + 2, (seed % 11) + 2, 4, 9000 + seed)
        self._check(sf.make_problem(sf.ProblemKind.SET_COVER, sys))

    @pytest.mark.parametrize("prune", [True, False])
    def test_uncoverable_set_cover_raises_before_the_prune(self, prune):
        # Ground element 0 is in no set.  At k = 1 the greedy passes the
        # bound H_1 * 1 at its second pick, before it reaches element 0.
        p = sf.make_problem(sf.ProblemKind.SET_COVER, sf.SetSystem.from_lists(6, [[1], [2], [3], [4], [5]]))
        with pytest.raises(sf.InfeasibleInstance):
            sf.branch_solve_min(p, sf.DEFAULT_ORACLE[p.kind], sf.BranchConfig(budget_k=1, prune_enabled=prune))


class TestBranchOnSubInstances:
    """The engine started at a sub-instance I(e) answers for I(e) itself,
    checked against brute force on it: exactly for vertex cover, whose
    matching oracle is intersective by construction; for the other kinds
    with a default oracle, every FOUND solution is feasible for I(e) and has
    the right size."""

    def test_vertex_cover_and_independent_set_examples(self):
        g = generate_gnp(8, 0.4, 3)
        child = vc(g).restrict(0)
        assert sf.brute_force_optimum(child).value == 3
        found, no = sf.BranchOutcome.FOUND, sf.BranchOutcome.NO_INSTANCE
        for k in range(8):
            rep = sf.branch_solve_min(child, MATCHING, sf.BranchConfig(budget_k=k))
            assert rep.outcome is (found if k >= 3 else no)
        child = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, g).restrict(0)
        assert sf.brute_force_optimum(child).value == 2
        for k in range(5):
            rep = sf.branch_solve_max(child, MIS, sf.BranchConfig(budget_k=k))
            assert rep.outcome is (found if k <= 2 else no)
            assert rep.value in (k, None)

    @staticmethod
    def _sub_instances(kind, seed):
        data = (generate_setsystem(8, 8, 3, seed) if kind is sf.ProblemKind.SET_COVER
                else generate_gnp(8, 0.5 if kind is sf.ProblemKind.CLIQUE else 0.4, seed))
        p = sf.make_problem(kind, data)
        for e in sf.iter_bits(p.alive):
            child = p.restrict(e)
            yield child
            if child.alive:
                yield child.restrict(min(sf.iter_bits(child.alive)))

    def test_greedy_set_cover_stays_within_alive(self):
        # Every sub-instance reachable by one or two restrictions: the
        # greedy picks only alive ids, and the engine started there answers
        # as brute force does, at k = opt and at the NO budget below it.
        p = sf.make_problem(sf.ProblemKind.SET_COVER, generate_setsystem(10, 8, 4, 1))
        oracle = sf.ORACLES["greedy-set-cover"]
        subs = [p.restrict(e) for e in sf.iter_bits(p.alive)]
        subs += [c.restrict(f) for c in subs for f in sf.iter_bits(c.alive)]
        assert len(subs) == 64
        for sub in subs:
            assert not sf.mask_of(oracle.run(sub)) & ~sub.alive, sub.chosen
            opt = sf.brute_force_optimum(sub).value
            rep = sf.branch_solve_min(sub, oracle, sf.BranchConfig(budget_k=opt))
            assert rep.outcome is sf.BranchOutcome.FOUND and rep.value == opt, sub.chosen
            assert sf.is_feasible(sub, rep.solution)
            if opt:
                rep = sf.branch_solve_min(sub, oracle, sf.BranchConfig(budget_k=opt - 1))
                assert rep.outcome is sf.BranchOutcome.NO_INSTANCE, sub.chosen

    @pytest.mark.parametrize("seed", range(8))
    def test_vertex_cover_is_exact(self, seed):
        for sub in self._sub_instances(sf.ProblemKind.VERTEX_COVER, 2_000 + seed):
            opt = sf.brute_force_optimum(sub).value
            for k in range(sub.alive.bit_count() + 1):
                rep = sf.branch_solve_min(sub, MATCHING, sf.BranchConfig(budget_k=k))
                if k < opt:
                    assert rep.outcome is sf.BranchOutcome.NO_INSTANCE, (sub.chosen, k)
                    continue
                assert rep.outcome is sf.BranchOutcome.FOUND, (sub.chosen, k)
                assert rep.value == opt and sf.is_feasible(sub, rep.solution)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["dominating-set", "set-cover", "independent-set", "clique"])
    def test_found_solutions_are_feasible_with_the_right_size(self, kind, seed):
        pk = sf.ProblemKind(kind)
        for sub in self._sub_instances(pk, 2_100 + seed):
            opt = sf.brute_force_optimum(sub)
            minimize = sub.goal is sf.Goal.MINIMIZE
            solve = sf.branch_solve_min if minimize else sf.branch_solve_max
            for k in range(sub.alive.bit_count() + 1):
                rep = solve(sub, sf.DEFAULT_ORACLE[pk], sf.BranchConfig(budget_k=k))
                assert rep.outcome is not sf.BranchOutcome.NODE_CAP_EXCEEDED
                if rep.outcome is not sf.BranchOutcome.FOUND:
                    continue
                assert sf.is_feasible(sub, rep.solution), (kind, sub.chosen, k)
                if minimize:
                    assert opt.value <= rep.value <= k, (kind, sub.chosen, k)
                else:
                    assert rep.value == k <= opt.value, (kind, sub.chosen, k)


def _exhaustive(goal):
    """An oracle that branches on every selectable element, so the search it
    drives is exhaustive and exact from any node, with the prune off."""
    return sf.ApproxOracle(name="every-alive", goal=goal, run=lambda p: list(sf.iter_bits(p.alive)),
                           ratio=lambda p: Fraction(1))


def _check_engines_on(sub):
    """Brute force, is_feasible, dualize then brute force, verify_intersective
    and both engines started at sub, against the reference sweep on sub."""
    ref = _sweep_optima(sub, all_ties=True)
    if ref is None:
        for q in (sub, sf.dualize(sub)):
            with pytest.raises(sf.InfeasibleInstance):
                sf.brute_force_optimum(q)
        return
    value, optima = ref
    assert sf.brute_force_optimum(sub) == sf.EvaluatedSolution(sf.members_of(optima[0]), value)
    assert sf.is_feasible(sub, sf.members_of(optima[0]))
    assert sf.is_feasible(sub, sf.members_of(sub.chosen)) is (sub.chosen == 0)  # chosen lies outside alive
    dual = sf.dualize(sub)
    dual_value, (dual_first,) = _sweep_optima(dual, all_ties=False)
    assert dual_value == sub.universe_size - value
    assert sf.brute_force_optimum(dual) == sf.EvaluatedSolution(sf.members_of(dual_first), dual_value)
    oracle = sf.DEFAULT_ORACLE.get(sub.kind)
    if oracle is not None:
        rep = sf.verify_intersective(sub, oracle)
        assert (rep.verdict, rep.optima_checked, rep.intersecting_optimum) == _verify_by_listing(sub, oracle)
    minimize = sub.goal is sf.Goal.MINIMIZE
    solve = sf.branch_solve_min if minimize else sf.branch_solve_max
    no = value - 1 if minimize else value + 1
    for o in (_exhaustive(sub.goal), oracle):
        if o is None:
            continue
        for k in (value, no):
            if k < 0:
                continue
            # The exhaustive oracle's ratio is no bound, so it runs unpruned.
            rep = solve(sub, o, sf.BranchConfig(budget_k=k, prune_enabled=o.kind is not None))
            if k == no:
                assert rep.outcome is sf.BranchOutcome.NO_INSTANCE, (sub.label, sub.chosen, o.name, k)
            elif rep.outcome is sf.BranchOutcome.FOUND or o.kind is None:
                assert rep.outcome is sf.BranchOutcome.FOUND, (sub.label, sub.chosen, o.name, k)
                assert rep.value == value and sub.feasible_mask(sf.mask_of(rep.solution))


@pytest.mark.parametrize("kind", sorted(sf.RESTRICTABLE, key=lambda k: k.value))
def test_every_engine_accepts_a_sub_instance(kind, atlas):
    if kind in sf.problems.SET_KINDS:
        datas = [random_system(5, 3 + seed % 4, 3, 1_300 + seed) for seed in range(16)]
    else:
        datas = atlas_upto(atlas, 5)
    depths = set()
    for data in datas:
        p = sf.make_problem(kind, data)
        for e in sf.iter_bits(p.alive):
            child = p.restrict(e)
            for sub in [child] + [child.restrict(f) for f in sf.iter_bits(child.alive) if f > e]:
                assert type(sub) is sf.SubsetProblem and sub.root is p
                _check_engines_on(sub)
                depths.add(sub.chosen.bit_count())
    assert depths == {1, 2}


def _seeded_problem(kind, n, seed):
    pk = sf.ProblemKind(kind)
    data = (generate_setsystem(n, n, 4, seed) if pk is sf.ProblemKind.SET_COVER
            else generate_gnp(n, 0.5 if pk is sf.ProblemKind.CLIQUE else 0.3, seed))
    return sf.make_problem(pk, data)


# (kind, n, seed, k, prune, outcome, solution, nodes_expanded, max_depth,
# max_arity) of the engine with each kind's default oracle, at k = opt and
# at the adjacent NO budget, on _seeded_problem: G(n, p) from generate_gnp
# (p = 0.5 for clique, 0.3 otherwise) and generate_setsystem(n, n, 4) for set
# cover.  The pruned rows hold the tree that the oracle's bounded call prunes
# at the room of the module docstring, which the incumbent lowers; the
# unpruned rows the tree without it.  A change that only makes the engine
# faster leaves every row as it is, node for node.  A sound prune, one that
# answers None only where the sub-instance has no solution within the room,
# moves only the nodes, depth and arity columns of the pruned rows, never
# an outcome or a solution.
PINNED_TREES = [
    ("vertex-cover", 7, 1, 3, True, "found", [0, 4, 5], 13, 3, 6),
    ("vertex-cover", 7, 1, 3, False, "found", [0, 4, 5], 30, 3, 6),
    ("vertex-cover", 7, 1, 2, True, "no-instance", None, 1, 0, 0),
    ("vertex-cover", 7, 1, 2, False, "no-instance", None, 22, 2, 6),
    ("vertex-cover", 10, 2, 4, True, "found", [2, 3, 4, 5], 28, 4, 6),
    ("vertex-cover", 10, 2, 4, False, "found", [2, 3, 4, 5], 113, 4, 6),
    ("vertex-cover", 10, 2, 3, True, "no-instance", None, 1, 0, 0),
    ("vertex-cover", 10, 2, 3, False, "no-instance", None, 64, 3, 6),
    ("vertex-cover", 13, 3, 6, True, "found", [0, 5, 8, 9, 10, 11], 79, 6, 10),
    ("vertex-cover", 13, 3, 6, False, "found", [0, 5, 8, 9, 10, 11], 1492, 6, 10),
    ("vertex-cover", 13, 3, 5, True, "no-instance", None, 1, 0, 0),
    ("vertex-cover", 13, 3, 5, False, "no-instance", None, 1282, 5, 10),
    ("dominating-set", 7, 1, 2, True, "found", [0, 5], 4, 2, 2),
    ("dominating-set", 7, 1, 2, False, "found", [0, 5], 4, 2, 2),
    ("dominating-set", 7, 1, 1, True, "no-instance", None, 1, 0, 0),
    ("dominating-set", 7, 1, 1, False, "no-instance", None, 3, 1, 2),
    ("dominating-set", 10, 2, 3, True, "found", [1, 2, 3], 7, 3, 3),
    ("dominating-set", 10, 2, 3, False, "found", [1, 2, 3], 8, 3, 3),
    ("dominating-set", 10, 2, 2, True, "no-instance", None, 1, 0, 0),
    ("dominating-set", 10, 2, 2, False, "no-instance", None, 7, 2, 3),
    ("dominating-set", 13, 3, 4, True, "found", [0, 4, 5, 8], 11, 4, 4),
    ("dominating-set", 13, 3, 4, False, "found", [0, 4, 5, 8], 21, 4, 4),
    ("dominating-set", 13, 3, 3, True, "no-instance", None, 1, 0, 0),
    ("dominating-set", 13, 3, 3, False, "no-instance", None, 20, 3, 4),
    ("set-cover", 7, 1, 3, True, "found", [0, 3, 4], 9, 3, 4),
    ("set-cover", 7, 1, 3, False, "found", [0, 3, 4], 14, 3, 4),
    ("set-cover", 7, 1, 2, True, "no-instance", None, 1, 0, 0),
    ("set-cover", 7, 1, 2, False, "no-instance", None, 11, 2, 4),
    ("set-cover", 10, 2, 4, True, "found", [3, 5, 7, 8], 11, 4, 4),
    ("set-cover", 10, 2, 4, False, "found", [3, 5, 7, 8], 16, 4, 4),
    ("set-cover", 10, 2, 3, True, "no-instance", None, 1, 0, 0),
    ("set-cover", 10, 2, 3, False, "no-instance", None, 15, 3, 4),
    ("set-cover", 13, 3, 6, True, "found", [1, 2, 5, 6, 9, 10], 22, 6, 6),
    ("set-cover", 13, 3, 6, False, "found", [1, 2, 5, 6, 9, 10], 64, 6, 6),
    ("set-cover", 13, 3, 5, True, "no-instance", None, 1, 0, 0),
    ("set-cover", 13, 3, 5, False, "no-instance", None, 63, 5, 6),
    ("independent-set", 7, 1, 4, True, "found", [0, 2, 3, 6], 5, 4, 4),
    ("independent-set", 7, 1, 4, False, "found", [0, 2, 3, 6], 5, 4, 4),
    ("independent-set", 7, 1, 5, True, "no-instance", None, 16, 4, 4),
    ("independent-set", 7, 1, 5, False, "no-instance", None, 16, 4, 4),
    ("independent-set", 10, 2, 6, True, "found", [0, 1, 5, 7, 8, 9], 7, 6, 6),
    ("independent-set", 10, 2, 6, False, "found", [0, 1, 5, 7, 8, 9], 7, 6, 6),
    ("independent-set", 10, 2, 7, True, "no-instance", None, 64, 6, 6),
    ("independent-set", 10, 2, 7, False, "no-instance", None, 64, 6, 6),
    ("independent-set", 13, 3, 7, True, "found", [1, 2, 3, 4, 6, 7, 12], 8, 7, 7),
    ("independent-set", 13, 3, 7, False, "found", [1, 2, 3, 4, 6, 7, 12], 8, 7, 7),
    ("independent-set", 13, 3, 8, True, "no-instance", None, 128, 7, 7),
    ("independent-set", 13, 3, 8, False, "no-instance", None, 128, 7, 7),
    ("clique", 7, 1, 3, True, "found", [0, 1, 4], 4, 3, 3),
    ("clique", 7, 1, 3, False, "found", [0, 1, 4], 4, 3, 3),
    ("clique", 7, 1, 4, True, "no-instance", None, 11, 3, 3),
    ("clique", 7, 1, 4, False, "no-instance", None, 11, 3, 3),
    ("clique", 10, 2, 4, True, "found", [2, 4, 5, 6], 5, 4, 4),
    ("clique", 10, 2, 4, False, "found", [2, 4, 5, 6], 5, 4, 4),
    ("clique", 10, 2, 5, True, "no-instance", None, 23, 4, 4),
    ("clique", 10, 2, 5, False, "no-instance", None, 23, 4, 4),
    ("clique", 13, 3, 4, True, "found", [0, 3, 9, 10], 5, 4, 4),
    ("clique", 13, 3, 4, False, "found", [0, 3, 9, 10], 5, 4, 4),
    ("clique", 13, 3, 5, True, "no-instance", None, 16, 4, 4),
    ("clique", 13, 3, 5, False, "no-instance", None, 16, 4, 4),
]


@pytest.mark.parametrize("kind", sorted({row[0] for row in PINNED_TREES}))
def test_search_tree_pinned(kind):
    for _, n, seed, k, prune, outcome, solution, nodes, depth, arity in (
        row for row in PINNED_TREES if row[0] == kind
    ):
        p = _seeded_problem(kind, n, seed)
        solve = sf.branch_solve_min if p.goal is sf.Goal.MINIMIZE else sf.branch_solve_max
        rep = solve(p, sf.DEFAULT_ORACLE[p.kind], sf.BranchConfig(budget_k=k, prune_enabled=prune))
        got = (
            rep.outcome.value,
            None if rep.solution is None else sorted(rep.solution),
            rep.nodes_expanded,
            rep.max_depth,
            rep.max_arity,
        )
        assert got == (outcome, solution, nodes, depth, arity), (n, seed, k, prune)


# kind: (rows, sum of nodes_expanded, sha256 prefix of the rows) over
# _seeded_problem at n = 8..12 and seeds 0..3, k = opt and the adjacent NO
# budget, pruned and unpruned.  A row is (outcome, sorted solution,
# max_depth, max_arity), so the hash pins answers and tie-breaks and the sum
# pins how many nodes the trees expand.
PINNED_TREE_SUMS = {
    "clique": (80, 776, "31019a708999f59b"),
    "dominating-set": (80, 919, "ffe13cf46d9f1977"),
    "independent-set": (80, 2842, "7cbd8ec7d6903954"),
    "set-cover": (80, 1276, "4c1c880e4c7db86d"),
    "vertex-cover": (80, 10020, "2aee66aee3e04817"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_TREE_SUMS))
def test_search_trees_pinned_in_sum(kind):
    nodes, rows = 0, []
    for n in range(8, 13):
        for seed in range(4):
            p = _seeded_problem(kind, n, seed)
            opt = sf.brute_force_optimum(p).value
            minimize = p.goal is sf.Goal.MINIMIZE
            solve = sf.branch_solve_min if minimize else sf.branch_solve_max
            for k in (opt, opt - 1 if minimize else opt + 1):
                if k < 0:
                    continue
                for prune in (True, False):
                    rep = solve(p, sf.DEFAULT_ORACLE[p.kind],
                                sf.BranchConfig(budget_k=k, prune_enabled=prune))
                    nodes += rep.nodes_expanded
                    rows.append((rep.outcome.value,
                                 None if rep.solution is None else sorted(rep.solution),
                                 rep.max_depth, rep.max_arity))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert (len(rows), nodes, digest) == PINNED_TREE_SUMS[kind]


RESTRICTABLE_WITH_ORACLE = sorted(k.value for k in sf.RESTRICTABLE if k in sf.DEFAULT_ORACLE)


@pytest.mark.parametrize("kind", RESTRICTABLE_WITH_ORACLE)
def test_prune_keeps_answers_and_never_adds_nodes(kind):
    """The ratio prune, bounded by the incumbent, removes only subtrees with
    no solution that could replace the incumbent: on every budget the pruned
    and the unpruned search return the same outcome and solution, tie-breaks
    included, and the pruned one expands no more nodes."""
    assert len(RESTRICTABLE_WITH_ORACLE) == 5
    for n in range(5, 12):
        for seed in range(8):
            p = _seeded_problem(kind, n, 12_000 + 100 * n + seed)
            solve = sf.branch_solve_min if p.goal is sf.Goal.MINIMIZE else sf.branch_solve_max
            for k in range(n + 1):
                on, off = (solve(p, sf.DEFAULT_ORACLE[p.kind],
                                 sf.BranchConfig(budget_k=k, prune_enabled=prune))
                           for prune in (True, False))
                assert (on.outcome, on.solution) == (off.outcome, off.solution), (n, seed, k)
                assert on.nodes_expanded <= off.nodes_expanded, (n, seed, k)


@pytest.mark.parametrize("kind", ["dominating-set", "set-cover", "vertex-cover"])
def test_covering_bounds_keep_the_answers_of_the_ratio_cut(kind, atlas):
    """The lower bounds that the built-in covering oracles prune by, beside
    the ratio cut, cut only subtrees with no solution within the room: on
    every budget 0..n the search returns the outcome and solution, tie-breaks
    included, of the same oracle rebuilt from run and ratio alone, which
    keeps the ratio cut alone, and expands no more nodes.  The graph kinds
    run on the atlas graphs with n <= 7 and on seeded G(n, 0.3), set cover
    on seeded set systems."""
    pk = sf.ProblemKind(kind)
    if pk is sf.ProblemKind.SET_COVER:
        datas = [random_system(n, n, 4, 700 + 10 * n + seed) for n in range(4, 13) for seed in range(12)]
    else:
        datas = atlas_upto(atlas, 7) + [random_graph(n, 0.3, 500 + 10 * n + seed)
                                        for n in range(8, 14) for seed in range(6)]
    oracle = sf.DEFAULT_ORACLE[pk]
    ratio_cut = sf.ApproxOracle(oracle.name, oracle.goal, kind=pk, run=oracle.run, ratio=oracle.ratio)
    fewer = 0
    for data in datas:
        p = sf.make_problem(pk, data)
        for k in range(p.universe_size + 1):
            cfg = sf.BranchConfig(budget_k=k)
            new, old = (sf.branch_solve_min(p, o, cfg) for o in (oracle, ratio_cut))
            assert old.outcome is not sf.BranchOutcome.NODE_CAP_EXCEEDED, (p.label, k)
            assert (new.outcome, new.solution) == (old.outcome, old.solution), (p.label, k)
            assert new.nodes_expanded <= old.nodes_expanded, (p.label, k)
            fewer += new.nodes_expanded < old.nodes_expanded
    assert fewer


@pytest.mark.parametrize("n,nodes", [(16, 73), (20, 111), (24, 157), (300, 22_651)])
def test_perfect_matching_stops_once_the_incumbent_is_optimal(n, nodes):
    # The first dive finds a cover of size n/2; the search expands
    # (n/2)^2 + n/2 + 1 nodes in all.  Pruned against the budget k = n/2 alone, the search would go
    # on to 6,307, 58,027 and 527,347 nodes at n = 16, 20, 24.  At n = 300
    # the dive is deeper than a recursion limit 100 frames above here.
    g = sf.Graph.from_edges(n, [(i, i + 1) for i in range(0, n, 2)])
    with recursion_limit_near_here():
        rep = sf.branch_solve_min(vc(g), MATCHING, sf.BranchConfig(budget_k=n // 2))
    assert (rep.outcome, rep.value, rep.max_depth) == (sf.BranchOutcome.FOUND, n // 2, n // 2)
    assert rep.nodes_expanded == nodes


def _conforming_max(p, oracle, k):
    """Whether optimal completions can be followed through oracle outputs."""
    if k == 0:
        return p.feasible_mask(0)
    for e in sorted(oracle.run(p)):
        child = p.restrict(e)
        child_opt = sf.brute_force_optimum(child)
        if (
            isinstance(child_opt, sf.EvaluatedSolution)
            and child_opt.value >= k - 1
            and _conforming_max(child, oracle, k - 1)
        ):
            return True
    return False


class TestVerifyIntersective:
    def test_matching_on_triangle(self):
        rep = sf.verify_intersective(vc(TRIANGLE), MATCHING)
        assert rep.verdict is sf.Verdict.INTERSECTIVE
        assert rep.optima_checked == 3
        assert rep.intersecting_optimum & rep.oracle_solution

    def test_mmvc_counterexample_path(self):
        # the minimal cover {b} misses the unique maximum minimal cover {a,c}
        minimal_cover = sf.ApproxOracle(
            name="path-minimal-cover",
            goal=sf.Goal.MAXIMIZE,
            run=lambda p: frozenset({1}),
            ratio=lambda p: Fraction(1, 3),
        )
        p = sf.make_problem(sf.ProblemKind.MAX_MINIMAL_VERTEX_COVER, PATH3)
        rep = sf.verify_intersective(p, minimal_cover)
        assert rep.verdict is sf.Verdict.NOT_INTERSECTIVE
        assert rep.optima_checked == 1

    def test_oracle_equal_to_unique_optimum(self):
        p = sf.make_problem(sf.ProblemKind.DOMINATING_SET, PATH3)
        exact = sf.ApproxOracle(
            name="exact-ds",
            goal=sf.Goal.MINIMIZE,
            run=lambda q: frozenset({1}),
            ratio=lambda q: Fraction(1),
        )
        rep = sf.verify_intersective(p, exact)
        assert rep.verdict is sf.Verdict.INTERSECTIVE

    def test_empty_optimum_is_met(self, atlas):
        # On an edgeless graph the only vertex cover of least size is the
        # empty set, which the engine accepts before running any oracle.
        edgeless = [g for g in atlas if not g.edges]
        assert [g.n for g in edgeless] == list(range(1, 8))
        for g in edgeless:
            rep = sf.verify_intersective(vc(g), MATCHING)
            assert rep.verdict is sf.Verdict.INTERSECTIVE
            assert (rep.oracle_solution, rep.optima_checked, rep.intersecting_optimum) == (
                frozenset(), 1, frozenset())

    def test_budget_overflow_is_inconclusive(self):
        g = random_graph(10, 0.3, 12)
        rep = sf.verify_intersective(vc(g), MATCHING, budget=5)
        assert rep.verdict is sf.Verdict.INCONCLUSIVE

    def test_infeasible_oracle_output_rejected(self):
        # greedy-mis with no kind, as a caller may build it, has clique's
        # goal, but its independent set {2,3,4,6,8,9} is no clique; it met
        # the optimum {0,6,7} and was certified
        p = sf.make_problem(sf.ProblemKind.CLIQUE, generate_gnp(10, 0.3, 3))
        with pytest.raises(sf.approx.InfeasibleOutput, match="greedy-mis.*clique"):
            sf.verify_intersective(p, replace(MIS, kind=None))


def _verify_by_listing(p, oracle, budget=sf.DEFAULT_BUDGET):
    """Reference for verify_intersective: (verdict, optima_checked,
    intersecting_optimum) from the full list of optima, as the reference
    sweep finds them one mask at a time."""
    sol = sf.approx.run_checked(oracle, p)
    if p.universe_size > budget:
        return sf.Verdict.INCONCLUSIVE, 0, None
    _, optima = _sweep_optima(p, all_ties=True) or (None, [])
    for opt in map(sf.members_of, optima):
        if sol & opt or not opt:
            return sf.Verdict.INTERSECTIVE, len(optima), opt
    return sf.Verdict.NOT_INTERSECTIVE, len(optima), None


def _assert_check_matches_listing(p, oracle, budget=sf.DEFAULT_BUDGET):
    rep = sf.verify_intersective(p, oracle, budget)
    want = _verify_by_listing(p, oracle, budget)
    assert (rep.verdict, rep.optima_checked, rep.intersecting_optimum) == want, p.label
    return rep


# Returns the empty set, feasible for both packing kinds and never an optimum
# on a graph with a vertex: not intersective, whatever the optima are.
NOTHING = sf.ApproxOracle(name="nothing", goal=sf.Goal.MAXIMIZE,
                          run=lambda p: frozenset(), ratio=lambda p: Fraction(1))


@pytest.mark.parametrize("chunk_bits", [3, 20])
class TestCheckMatchesListing:
    """verify_intersective counts the optima and locates the first one met
    in the scan; listing them all gives the same report."""

    @pytest.mark.parametrize("seed", range(8))
    def test_default_oracles(self, chunk_bits, seed, monkeypatch):
        from subsetfpt import core

        monkeypatch.setattr(core, "_CHUNK_BITS", chunk_bits)
        n = 5 + seed
        g, system = random_graph(n, 0.35, 600 + seed), random_system(n, n, 3, 600 + seed)
        verdicts = set()
        for kind, oracle in sf.DEFAULT_ORACLE.items():
            p = sf.make_problem(kind, system if kind in sf.problems.SET_KINDS else g)
            try:
                verdicts.add(_assert_check_matches_listing(p, oracle).verdict)
            except sf.InfeasibleInstance:
                with pytest.raises(sf.InfeasibleInstance):
                    _verify_by_listing(p, oracle)
        assert verdicts <= {sf.Verdict.INTERSECTIVE, sf.Verdict.NOT_INTERSECTIVE}

    @pytest.mark.parametrize("seed", range(4))
    def test_non_intersective_oracle(self, chunk_bits, seed, monkeypatch):
        from subsetfpt import core

        monkeypatch.setattr(core, "_CHUNK_BITS", chunk_bits)
        g = random_graph(9 + seed, 0.4, 640 + seed)
        for kind in (sf.ProblemKind.INDEPENDENT_SET, sf.ProblemKind.CLIQUE):
            rep = _assert_check_matches_listing(sf.make_problem(kind, g), NOTHING)
            assert rep.verdict is sf.Verdict.NOT_INTERSECTIVE and rep.optima_checked >= 1
        # The leaves of a star cover it and miss its one optimum, the centre.
        star = sf.Graph.from_edges(7, [(0, i) for i in range(1, 7)])
        leaves = sf.ApproxOracle(name="leaves", goal=sf.Goal.MINIMIZE,
                                 run=lambda p: frozenset(range(1, 7)), ratio=lambda p: Fraction(6))
        rep = _assert_check_matches_listing(vc(star), leaves)
        assert (rep.verdict, rep.optima_checked) == (sf.Verdict.NOT_INTERSECTIVE, 1)

    def test_empty_optimum(self, chunk_bits, monkeypatch):
        from subsetfpt import core

        monkeypatch.setattr(core, "_CHUNK_BITS", chunk_bits)
        rep = _assert_check_matches_listing(vc(sf.Graph.from_edges(6, [])), MATCHING)
        assert (rep.verdict, rep.optima_checked, rep.intersecting_optimum) == (
            sf.Verdict.INTERSECTIVE, 1, frozenset())

    def test_over_budget(self, chunk_bits, monkeypatch):
        from subsetfpt import core

        monkeypatch.setattr(core, "_CHUNK_BITS", chunk_bits)
        rep = _assert_check_matches_listing(vc(random_graph(10, 0.3, 12)), MATCHING, budget=5)
        assert rep.verdict is sf.Verdict.INCONCLUSIVE

    def test_beyond_max_exhaustive(self, chunk_bits, monkeypatch):
        from subsetfpt import core

        monkeypatch.setattr(core, "_CHUNK_BITS", chunk_bits)
        p = vc(sf.Graph.from_edges(core.MAX_EXHAUSTIVE + 1, [(0, 1)]))
        with pytest.raises(ValueError, match="limited to 62 elements"):
            sf.verify_intersective(p, MATCHING, 100)
