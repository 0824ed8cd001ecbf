import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsetfpt as sf
from conftest import _sweep_optima, ref_optimum
from subsetfpt.core import optima_meeting

TRIANGLE = sf.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = sf.Graph.from_edges(3, [(0, 1), (1, 2)])


def vc(g):
    return sf.make_problem(sf.ProblemKind.VERTEX_COVER, g)


def mis(g):
    return sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, g)


class TestIsFeasible:
    def test_empty_graph_empty_cover(self):
        p = vc(sf.Graph.from_edges(3, []))
        assert sf.is_feasible(p, frozenset())

    def test_triangle_two_vertices_cover(self):
        assert sf.is_feasible(vc(TRIANGLE), {0, 1})

    def test_triangle_single_vertex_no_cover(self):
        assert not sf.is_feasible(vc(TRIANGLE), {0})

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError):
            sf.is_feasible(vc(TRIANGLE), {3})
        for check in (sf.is_feasible, sf.complement):
            with pytest.raises(ValueError, match="member 7 outside universe of size 3"):
                check(vc(PATH3), {0, 7})
            with pytest.raises(ValueError, match="member -1 outside universe of size 3"):
                check(vc(PATH3), [-1])


class TestRoot:
    def test_root_takes_no_masks(self):
        # A root's masks are derived: the whole universe alive, nothing chosen.
        p = mis(PATH3)
        assert (p.alive, p.chosen) == (0b111, 0) and not hasattr(p, "root")
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(p, alive=0b11000)
        for name in ("alive", "chosen", "root"):
            with pytest.raises(TypeError, match=name):
                sf.SubsetProblem(label="bare", universe_size=3, goal=sf.Goal.MAXIMIZE,
                                 feasible_mask=p.feasible_mask, feasible_batch=p.feasible_batch,
                                 **{name: 0})
        # A replaced root derives its masks again, and the engines agree on it.
        q = dataclasses.replace(p, label="renamed")
        assert (q.alive, q.chosen) == (0b111, 0)
        assert sf.brute_force_optimum(q) == sf.EvaluatedSolution(frozenset({0, 2}), 2)
        rep = sf.branch_solve_max(q, sf.ORACLES["greedy-mis"], sf.BranchConfig(budget_k=2))
        assert (rep.outcome, rep.solution) == (sf.BranchOutcome.FOUND, frozenset({0, 2}))
        assert sf.ORACLES["greedy-mis"].ratio(q) == Fraction(1, 3)


class TestBruteForce:
    def test_min_vertex_cover_triangle(self):
        p = vc(TRIANGLE)
        res = sf.brute_force_optimum(p)
        assert isinstance(res, sf.EvaluatedSolution)
        value, (mask,) = _sweep_optima(p, all_ties=False)
        assert (res.members, res.value) == (sf.members_of(mask), value) == (frozenset({0, 1}), 2)

    def test_max_independent_set_path(self):
        res = sf.brute_force_optimum(mis(PATH3))
        assert res.members == frozenset({0, 2}) and res.value == 2

    def test_min_set_cover_four_sets(self):
        # expected value frozen from independent enumeration over the
        # 16 subfamilies (see ref below)
        sys = sf.SetSystem.from_lists(4, [[0, 1], [2, 3], [0, 2], [1, 3]])
        p = sf.make_problem(sf.ProblemKind.SET_COVER, sys)

        def covers(chosen):
            cov = set()
            for i in chosen:
                for e in range(4):
                    if (sys.sets[i] >> e) & 1:
                        cov.add(e)
            return cov == {0, 1, 2, 3}

        _, ref_val = ref_optimum(4, sf.Goal.MINIMIZE, covers)
        assert ref_val == 2
        res = sf.brute_force_optimum(p)
        assert res.value == 2

    def test_infeasible_raises(self):
        sys = sf.SetSystem.from_lists(3, [[0], [1]])  # element 2 uncoverable
        p = sf.make_problem(sf.ProblemKind.SET_COVER, sys)
        with pytest.raises(sf.InfeasibleInstance):
            sf.brute_force_optimum(p)

    def test_budget_exceeded(self):
        p = vc(sf.Graph.from_edges(25, []))
        res = sf.brute_force_optimum(p, budget=20)
        assert isinstance(res, sf.BudgetExceeded)
        assert res.universe_size == 25 and res.budget == 20

    def test_more_than_62_elements_rejected_whatever_the_budget(self):
        p = vc(sf.Graph.from_edges(70, []))
        with pytest.raises(ValueError, match="62"):
            sf.brute_force_optimum(p, budget=100)
        with pytest.raises(ValueError, match="62"):
            optima_meeting(p, 0, budget=100)
        assert isinstance(sf.brute_force_optimum(p, budget=69), sf.BudgetExceeded)

    def test_tie_break_smallest_lexicographic(self):
        # all three 2-subsets of the triangle are optimal covers
        res = sf.brute_force_optimum(vc(TRIANGLE))
        assert res.members == frozenset({0, 1})

    @pytest.mark.parametrize("seed", range(8))
    def test_batch_path_matches_sweep(self, seed):
        from conftest import random_graph, random_system

        # set cover over 80 ground elements: more than an int64 lane holds
        for p in (
            vc(random_graph(14, 0.4, seed)),
            sf.make_problem(sf.ProblemKind.SET_COVER, random_system(80, 15, 10, seed)),
        ):
            value, (mask,) = _sweep_optima(p, all_ties=False)
            assert sf.brute_force_optimum(p) == sf.EvaluatedSolution(sf.members_of(mask), value)

    def test_problem_without_batch_predicate_is_refused(self):
        with pytest.raises(TypeError, match="feasible_batch"):
            sf.SubsetProblem(label="bare", universe_size=3, goal=sf.Goal.MINIMIZE,
                             feasible_mask=lambda m: True)

    def test_determinism(self):
        p = vc(TRIANGLE)
        assert sf.brute_force_optimum(p) == sf.brute_force_optimum(p)


class TestOptimaMeeting:
    """optima_meeting counts the optima and locates the first one, in
    (cardinality, lexicographic) order, that meets a mask."""

    def test_triangle_vertex_cover_optima(self):
        # The optima are {0, 1}, {0, 2} and {1, 2}.
        p = vc(TRIANGLE)
        assert optima_meeting(p, 0b100) == (3, frozenset({0, 2}))
        assert optima_meeting(p, 0b001) == (3, frozenset({0, 1}))
        assert optima_meeting(p, 0) == (3, None)

    def test_dominating_path_unique(self):
        p = sf.make_problem(sf.ProblemKind.DOMINATING_SET, PATH3)
        assert optima_meeting(p, 0b111) == (1, frozenset({1}))
        assert optima_meeting(p, 0b101) == (1, None)

    def test_single_vertex_independent_set(self):
        p = mis(sf.Graph.from_edges(1, []))
        assert optima_meeting(p, 0b1) == (1, frozenset({0}))

    def test_infeasible_raises(self):
        sys = sf.SetSystem.from_lists(2, [[0]])
        p = sf.make_problem(sf.ProblemKind.SET_COVER, sys)
        with pytest.raises(sf.InfeasibleInstance):
            optima_meeting(p, 0b1)

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_matches_sweep(self, seed):
        from conftest import random_graph

        _assert_scan_matches_sweep(vc(random_graph(14, 0.3, 100 + seed)))


def _assert_scan_matches_sweep(q):
    """brute_force_optimum gives the reference sweep's first optimum, and
    optima_meeting its number of ties and the first tie that meets no
    element, each single element and all of them; both raise
    InfeasibleInstance exactly when the sweep finds no feasible mask."""
    hit = _sweep_optima(q, all_ties=True)
    n = q.universe_size
    meets = (0, *(1 << e for e in range(n)), (1 << n) - 1)
    if hit is None:
        with pytest.raises(sf.InfeasibleInstance):
            sf.brute_force_optimum(q)
        for meet in meets:
            with pytest.raises(sf.InfeasibleInstance):
                optima_meeting(q, meet)
        return
    value, ties = hit
    assert sf.brute_force_optimum(q) == sf.EvaluatedSolution(sf.members_of(ties[0]), value), q.label
    for meet in meets:
        # The empty optimum counts as met.
        first = next((m for m in ties if m & meet or not m), None)
        want = len(ties), None if first is None else sf.members_of(first)
        assert optima_meeting(q, meet) == want, (q.label, meet)


class TestChunkedScan:
    """The scan over several chunks, each narrower than the universe, or
    over one gives the sweep's optimum and ties on every kind."""

    @pytest.mark.parametrize("seed", range(4))
    def test_chunks_match_sweep(self, seed, monkeypatch):
        from subsetfpt import core

        monkeypatch.setattr(core, "_CHUNK_BITS", 3)
        self._check_every_kind(seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_chunk_matches_sweep(self, seed):
        self._check_every_kind(seed)

    @staticmethod
    def _check_every_kind(seed):
        from conftest import random_graph, random_system

        g, sys = random_graph(8, 0.4, 500 + seed), random_system(7, 8, 3, 500 + seed)
        kinds = list(sf.ProblemKind)
        assert len(kinds) == 9
        for kind in kinds:
            p = sf.make_problem(kind, sys if kind in sf.problems.SET_KINDS else g)
            for q in (p, sf.dualize(p)):
                _assert_scan_matches_sweep(q)
        # Ground element 7 is in no set: no family covers it, and no
        # complement of one does.
        p = sf.make_problem(sf.ProblemKind.SET_COVER, sf.SetSystem(n_ground=8, sets=sys.sets))
        for q in (p, sf.dualize(p)):
            assert _sweep_optima(q, all_ties=False) is None
            _assert_scan_matches_sweep(q)


class TestSubInstanceScan:
    """Brute force on children and grandchildren, which scan with their own
    batch predicate, gives the reference sweep's optimum and ties."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("chunk_bits", [3, 20])
    def test_sub_instances_match_sweep(self, seed, chunk_bits, monkeypatch):
        from conftest import random_graph, random_system
        from subsetfpt import core

        monkeypatch.setattr(core, "_CHUNK_BITS", chunk_bits)
        g, sys = random_graph(8, 0.4, 520 + seed), random_system(7, 8, 3, 520 + seed)
        for kind in sorted(sf.RESTRICTABLE, key=lambda k: k.value):
            p = sf.make_problem(kind, sys if kind in sf.problems.SET_KINDS else g)
            for e in sf.iter_bits(p.alive):
                child = p.restrict(e)
                _assert_scan_matches_sweep(child)
                for f in itertools.islice(sf.iter_bits(child.alive), 2):
                    _assert_scan_matches_sweep(child.restrict(f))


class TestLayerSearch:
    """The scan bisects for a chunk's best size; walking the popcount
    layers one by one finds the same layer."""

    @pytest.mark.parametrize("w", range(9))
    @pytest.mark.parametrize("goal", list(sf.Goal))
    def test_bisection_matches_linear_walk(self, w, goal):
        import random

        from subsetfpt import core

        low, layers, _ = core._chunk_basis(w)
        rng = random.Random(700 + w)
        sizes = range(w + 1) if goal is sf.Goal.MINIMIZE else range(w, -1, -1)
        for _ in range(50):
            # One to three positions, on top of a dense random mask or not.
            picks = rng.sample(range(1 << w), rng.randint(1, min(3, 1 << w)))
            feasible = sum(1 << s for s in picks) | rng.choice([0, rng.getrandbits(1 << w)])
            # A problem whose one chunk has these feasible positions.
            p = sf.SubsetProblem("fixed", w, goal, feasible_mask=None,
                                 feasible_batch=lambda cols: feasible)
            j = next(j for j in sizes if feasible & layers[j])
            assert list(core._chunks(p)) == [(j, 0, feasible & layers[j], low[::-1])]


class TestComplement:
    def test_examples(self):
        p = vc(sf.Graph.from_edges(5, []))
        assert sf.complement(p, {1, 3}) == frozenset({0, 2, 4})
        p3 = vc(sf.Graph.from_edges(3, []))
        assert sf.complement(p3, set()) == frozenset({0, 1, 2})
        p4 = vc(sf.Graph.from_edges(4, []))
        assert sf.complement(p4, {0, 1, 2, 3}) == frozenset()

    @given(st.integers(1, 10), st.data())
    def test_size_identity(self, n, data):
        s = data.draw(st.sets(st.integers(0, n - 1)))
        p = vc(sf.Graph.from_edges(n, []))
        assert len(sf.complement(p, s)) == n - len(s)

    def test_results_of_one_size_share_their_ints(self):
        # Ints above 256 are fresh objects unless both sets take them from
        # one universe.
        p = vc(sf.Graph.from_edges(1_000, []))
        a, b = sf.complement(p, {0}), sf.complement(p, {999})
        assert {id(x) for x in a if x < 999} == {id(x) for x in b if x > 0}


class TestDualize:
    def _all_subsets_agree(self, a, b):
        n = a.universe_size
        assert n == b.universe_size
        for mask in range(1 << n):
            assert a.feasible_mask(mask) == b.feasible_mask(mask)

    @pytest.mark.parametrize("g", [TRIANGLE, PATH3])
    @pytest.mark.parametrize(
        "kind", [sf.ProblemKind.VERTEX_COVER, sf.ProblemKind.INDEPENDENT_SET]
    )
    def test_involution(self, g, kind):
        p = sf.make_problem(kind, g)
        dd = sf.dualize(sf.dualize(p))
        assert dd.goal is p.goal
        self._all_subsets_agree(p, dd)

    def test_goal_flips_and_label(self):
        p = vc(TRIANGLE)
        d = sf.dualize(p)
        assert d.goal is sf.Goal.MAXIMIZE
        assert d.label.startswith("D-")

    def test_dual_min_set_cover_counts_removable_sets(self):
        sys = sf.SetSystem.from_lists(4, [[0, 1], [2, 3], [0, 2], [1, 3]])
        p = sf.make_problem(sf.ProblemKind.SET_COVER, sys)
        d = sf.dualize(p)
        res = sf.brute_force_optimum(d)
        assert res.value == 2  # m - opt(set cover) = 4 - 2

    def test_dual_of_independent_set_is_vertex_cover(self):
        d = sf.dualize(mis(PATH3))
        cover = vc(PATH3)
        self._all_subsets_agree(
            dataclasses.replace(d, goal=cover.goal), cover
        )

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "kind",
        [
            sf.ProblemKind.VERTEX_COVER,
            sf.ProblemKind.INDEPENDENT_SET,
            sf.ProblemKind.DOMINATING_SET,
        ],
    )
    def test_value_duality(self, seed, kind):
        from conftest import random_graph

        g = random_graph(seed % 6 + 4, 0.5, 50 + seed)
        p = sf.make_problem(kind, g)
        a = sf.brute_force_optimum(p)
        b = sf.brute_force_optimum(sf.dualize(p))
        if isinstance(a, sf.EvaluatedSolution) and isinstance(b, sf.EvaluatedSolution):
            assert a.value + b.value == p.universe_size
