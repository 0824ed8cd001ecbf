import random
from fractions import Fraction

import pytest

import subsetfpt as sf
from subsetfpt import approx
from subsetfpt.problems import RESTRICTABLE, SET_KINDS
from conftest import (
    _sweep_optima,
    all_graphs_upto,
    closed_neighbourhoods_ref,
    greedy_cover_ref,
    random_graph,
    random_system,
)

TRIANGLE = sf.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = sf.Graph.from_edges(3, [(0, 1), (1, 2)])
STAR = sf.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def test_harmonic_exact_rationals():
    assert sf.harmonic(1) == 1
    assert sf.harmonic(3) == Fraction(11, 6)
    assert sf.harmonic(0) == 0
    explicit = Fraction(0)
    for d in range(1, 21):
        explicit += Fraction(1, d)
        assert sf.harmonic(d) == sf.harmonic(d) == explicit  # a repeat is a cache hit


class TestGreedySetCover:
    def test_trace_picks_biggest_then_tie_lowest(self):
        sys = sf.SetSystem.from_lists(4, [[0, 1, 2], [3], [0, 1], [2, 3]])
        assert sf.greedy_set_cover(sys) == frozenset({0, 1})

    def test_single_covering_set(self):
        sys = sf.SetSystem.from_lists(3, [[0, 1, 2]])
        assert sf.greedy_set_cover(sys) == frozenset({0})

    def test_both_singletons_required(self):
        sys = sf.SetSystem.from_lists(2, [[0], [1]])
        assert sf.greedy_set_cover(sys) == frozenset({0, 1})

    def test_uncoverable_raises(self):
        with pytest.raises(sf.InfeasibleInstance):
            sf.greedy_set_cover(sf.SetSystem.from_lists(2, [[0]]))


def _random_covers(rng, n_ground, m, size=None):
    """m cover masks over n_ground elements, with empty and repeated sets and
    sometimes a ground element that no set holds.  With size, each new
    nonempty set has size elements, so that gains tie often."""
    covers = []
    for _ in range(m):
        roll = rng.random()
        if roll < 0.1:
            covers.append(0)
        elif roll < 0.2 and covers:
            covers.append(rng.choice(covers))
        else:
            k = size or rng.randint(1, max(1, n_ground // 3))
            covers.append(sum(1 << x for x in rng.sample(range(n_ground), k)))
    if rng.random() < 0.8:  # cover every element, so most systems are coverable
        for x in range(n_ground):
            if not any((c >> x) & 1 for c in covers):
                covers[rng.randrange(m)] |= 1 << x
    return tuple(covers)


def _transpose(covers, n_ground):
    return tuple(sum(1 << i for i, c in enumerate(covers) if (c >> x) & 1) for x in range(n_ground))


def _picks_or_infeasible(fn, *args):
    try:
        return fn(*args)
    except sf.InfeasibleInstance:
        return "infeasible"


class TestGainCounters:
    """The bit-sliced gain counters pick what the plain scan picks, in the
    same order, and raise where it raises."""

    # (ground, ids): narrow, square and wide systems, on both sides of WIDE.
    SHAPES = [(1, 1), (3, 2), (5, 5), (8, 12), (8, 31), (8, 32), (12, 60), (16, 64), (20, 150)]

    @pytest.mark.parametrize("seed", range(30))
    def test_counters_match_scan(self, seed):
        rng = random.Random(seed)
        outcomes = set()
        systems = []
        for n_ground, m in self.SHAPES:
            covers = _random_covers(rng, n_ground, m)
            gone = ~(1 << rng.randrange(n_ground))  # no set holds this element
            systems += [(n_ground, m, covers), (n_ground, m, tuple(c & gone for c in covers))]
        for n_ground, m, covers in systems:
            holders = _transpose(covers, n_ground)
            for _ in range(4):
                chosen = rng.getrandbits(m) & rng.getrandbits(m)
                target = approx._residual(covers, n_ground, chosen)
                scan = _picks_or_infeasible(approx._scan_picks, covers, target)
                counters = _picks_or_infeasible(approx._counter_picks, covers, holders, target)
                assert counters == scan
                outcomes.add(scan == "infeasible")
                gains = [(c & target).bit_count() for c in covers]
                best = max(gains, default=0)
                top = sum(1 << i for i, gain in enumerate(gains) if gain == best) if best else 0
                assert approx._top_gain(approx._gain_planes(holders, target)) == (top, best)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("seed", range(10))
    def test_max_residual_size_in_both_regimes(self, seed):
        rng = random.Random(100 + seed)
        for n_ground, m in ((10, 10), (10, 39), (10, 40), (10, 80)):
            sys = sf.SetSystem(n_ground, _random_covers(rng, n_ground, m))
            assert approx._is_wide(sys.m, sys.n_ground) == (m >= 4 * n_ground)
            p = sf.make_problem(sf.ProblemKind.SET_COVER, sys)
            for e in rng.sample(range(m), 3):
                p = p.restrict(e)
                target = approx._residual(sys.sets, n_ground, p.chosen)
                expected = max((s & target).bit_count() for s in sys.sets)
                assert approx._max_residual_size(p) == expected

    def test_wide_system_takes_the_counters(self, monkeypatch):
        sys = random_system(10, 40, 3, 7)
        expected = sf.greedy_set_cover(sys, 0b101)

        def refuse(*args):
            raise AssertionError("a wide system took the scan")

        monkeypatch.setattr(approx, "_scan_picks", refuse)
        assert sf.greedy_set_cover(sys, 0b101) == expected
        assert len(expected) > 1
        with pytest.raises(AssertionError):
            sf.greedy_set_cover(random_system(10, 39, 3, 7))


class TestPickSequence:
    """The covering greedy picks what a plain recount of every gain on every
    pick picks, in the same order and lowest id on ties, and raises where
    that finds an element no cover holds, on narrow and wide systems alike."""

    # (ground, ids, cover size), on both sides of WIDE.
    SHAPES = [(1, 1, 1), (4, 3, 2), (6, 6, 2), (8, 12, 3), (8, 32, 2), (12, 60, 4), (20, 40, 7), (30, 120, 3)]

    @pytest.mark.parametrize("seed", range(30))
    def test_picks_match_reference(self, seed):
        rng = random.Random(500 + seed)
        infeasible, wide, tied = set(), set(), False
        for n_ground, m, size in self.SHAPES:
            tied_covers = _random_covers(rng, n_ground, m, size)
            gone = ~(1 << rng.randrange(n_ground))  # no set holds this element
            for covers in (tied_covers, tuple(c & gone for c in tied_covers),
                           _random_covers(rng, n_ground, m)):
                holders = _transpose(covers, n_ground)
                for chosen in (0, rng.getrandbits(m) & rng.getrandbits(m), (1 << m) - 1):
                    target = approx._residual(covers, n_ground, chosen)
                    expected = greedy_cover_ref([set(sf.iter_bits(c)) for c in covers], set(sf.iter_bits(target)))
                    infeasible.add(expected is None)
                    wide.add(approx._is_wide(m, n_ground))
                    gains = [(c & target).bit_count() for c in covers]
                    tied |= gains.count(max(gains)) > 1 and max(gains) > 0
                    if expected is None:
                        for run in (lambda: approx._scan_picks(covers, target),
                                    lambda: approx._counter_picks(covers, holders, target),
                                    lambda: approx._greedy_cover(covers, holders, chosen)):
                            with pytest.raises(sf.InfeasibleInstance):
                                run()
                        continue
                    assert not set(sf.iter_bits(chosen)) & set(expected)
                    assert approx._scan_picks(covers, target) == expected
                    assert approx._counter_picks(covers, holders, target) == expected
                    assert approx._greedy_cover(covers, holders, chosen) == frozenset(expected)
        assert infeasible == wide == {True, False} and tied

    def test_greedy_dominating_on_all_graphs_up_to_6(self):
        for g in all_graphs_upto(6):
            expected = greedy_cover_ref(closed_neighbourhoods_ref(g), set(range(g.n)))
            assert approx._scan_picks(g.closed_nbs, (1 << g.n) - 1) == expected
            assert sf.greedy_dominating_set(g) == frozenset(expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_dominating_on_gnp_600(self, seed):
        g = random_graph(600, 0.02, 70000 + seed)
        expected = greedy_cover_ref(closed_neighbourhoods_ref(g), set(range(g.n)))
        assert approx._scan_picks(g.closed_nbs, (1 << g.n) - 1) == expected
        p = sf.make_problem(sf.ProblemKind.DOMINATING_SET, g)
        assert sf.ORACLES["greedy-dominating"].run(p) == frozenset(expected)


class TestMatchingVertexCover:
    def test_star_takes_first_edge_endpoints(self):
        assert sf.matching_vertex_cover(STAR) == frozenset({0, 1})

    def test_triangle_matches_optimum(self):
        assert len(sf.matching_vertex_cover(TRIANGLE)) == 2

    def test_edgeless(self):
        assert sf.matching_vertex_cover(sf.Graph.from_edges(3, [])) == frozenset()


class TestGreedyDominating:
    def test_path_center(self):
        assert sf.greedy_dominating_set(PATH3) == frozenset({1})

    def test_edgeless_all_vertices(self):
        g = sf.Graph.from_edges(3, [])
        assert sf.greedy_dominating_set(g) == frozenset({0, 1, 2})

    def test_star_center(self):
        assert sf.greedy_dominating_set(STAR) == frozenset({0})


class TestGreedyMIS:
    def test_path_endpoints(self):
        assert sf.greedy_maximal_independent_set(PATH3) == frozenset({0, 2})

    def test_triangle_single(self):
        assert sf.greedy_maximal_independent_set(TRIANGLE) == frozenset({0})

    def test_edgeless_all(self):
        g = sf.Graph.from_edges(4, [])
        assert sf.greedy_maximal_independent_set(g) == frozenset(range(4))

    @pytest.mark.parametrize("seed", range(30))
    def test_output_is_independent_dominating(self, seed):
        g = random_graph((seed % 8) + 2, 0.4, 900 + seed)
        out = sf.greedy_maximal_independent_set(g)
        p_is = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, g)
        p_mids = sf.make_problem(
            sf.ProblemKind.MIN_INDEPENDENT_DOMINATING_SET, g
        )
        assert sf.is_feasible(p_is, out)
        assert sf.is_feasible(p_mids, out)


class TestGreedyClique:
    def test_triangle_whole(self):
        assert sf.greedy_clique(TRIANGLE) == frozenset({0, 1, 2})

    def test_edgeless_single_vertex(self):
        assert len(sf.greedy_clique(sf.Graph.from_edges(2, []))) == 1

    def test_path_edge(self):
        assert len(sf.greedy_clique(PATH3)) == 2


class TestSharedGreedies:
    """Each core has one greedy: the clique greedy is the independent-set
    greedy on the complement, and the dominating-set greedy is the set-cover
    greedy on the closed neighbourhoods, on every sub-instance mask."""

    def test_clique_is_mis_of_complement(self):
        for g in all_graphs_upto(5):
            comp = sf.Graph(n=g.n, adj=g.non_neighbours)
            for alive in [-1, *range(1 << g.n)]:
                assert sf.greedy_clique(g, alive) == sf.greedy_maximal_independent_set(comp, alive)

    def test_dominating_is_set_cover_of_closed_neighbourhoods(self):
        for g in all_graphs_upto(5):
            sys = sf.SetSystem.from_lists(g.n, closed_neighbourhoods_ref(g))
            for chosen in range(1 << g.n):
                assert sf.greedy_dominating_set(g, chosen) == sf.greedy_set_cover(sys, chosen)


GRAPH_ORACLES = [
    "matching-vc",
    "greedy-dominating",
    "greedy-mis",
    "greedy-ids",
    "greedy-clique",
]


@pytest.mark.parametrize("kind", list(sf.DEFAULT_ORACLE))
def test_default_oracle_matches_goal(kind):
    assert sf.DEFAULT_ORACLE[kind].goal is sf.problems.GOALS[kind]


@pytest.mark.parametrize("name", list(sf.ORACLES))
def test_oracle_runs_on_its_own_kind_only(name):
    # The ratio is proven for one kind: accepted there and on its
    # sub-instances, refused on every other kind, even of the same goal and
    # instance type, and on every dual.
    oracle = sf.ORACLES[name]
    sys = sf.SetSystem.from_lists(3, [[0, 1], [1, 2], [2], [0]])

    def assert_refused(p):
        same_goal = oracle.goal is p.goal
        msg = f"^oracle {name} is for {oracle.kind.value} only$" if same_goal else "goal must match"
        with pytest.raises(ValueError, match=msg):
            oracle.check_goal(p)

    for kind in sf.ProblemKind:
        p = sf.make_problem(kind, sys if kind in SET_KINDS else PATH3)
        if kind is oracle.kind:
            oracle.check_goal(p)
            if kind in RESTRICTABLE:
                oracle.check_goal(p.restrict(0))
        else:
            assert_refused(p)
        assert_refused(sf.dualize(p))


class TestRatioSoundness:
    def _check(self, oracle, p):
        opt = sf.brute_force_optimum(p)
        if not isinstance(opt, sf.EvaluatedSolution):
            return
        sol = oracle.run(p)
        assert sf.is_feasible(p, sol)
        rho = oracle.ratio(p)
        if oracle.goal is sf.Goal.MINIMIZE:
            assert rho >= 1
            assert len(sol) <= rho * opt.value
        else:
            assert 0 < rho <= 1
            assert len(sol) >= rho * opt.value

    @pytest.mark.parametrize("name", GRAPH_ORACLES)
    def test_all_graphs_up_to_4(self, name):
        oracle = sf.ORACLES[name]
        for g in all_graphs_upto(4):
            self._check(oracle, sf.make_problem(oracle.kind, g))

    @pytest.mark.parametrize("name", GRAPH_ORACLES)
    @pytest.mark.parametrize("seed", range(100))
    def test_random_graphs(self, name, seed):
        oracle = sf.ORACLES[name]
        g = random_graph((seed % 11) + 2, [0.2, 0.5, 0.8][seed % 3], 1000 + seed)
        self._check(oracle, sf.make_problem(oracle.kind, g))

    @pytest.mark.parametrize("seed", range(100))
    def test_random_set_systems(self, seed):
        sys = random_system((seed % 8) + 2, (seed % 10) + 1, 4, 2000 + seed)
        self._check(
            sf.ORACLES["greedy-set-cover"],
            sf.make_problem(sf.ProblemKind.SET_COVER, sys),
        )


class TestMatchingIntersectivity:
    """The matching cover contains both endpoints of an edge; every optimal
    cover hits every edge, so the two always intersect on non-edgeless
    graphs."""

    def test_all_graphs_up_to_5(self):
        for g in all_graphs_upto(5):
            if not g.edges:
                continue
            p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, g)
            out = sf.mask_of(sf.matching_vertex_cover(g))
            _, optima = _sweep_optima(p, all_ties=True)
            assert any(out & o for o in optima), sorted(g.edges)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_graphs_n8(self, seed):
        g = random_graph(8, 0.4, 3000 + seed)
        if not g.edges:
            return
        out = sf.mask_of(sf.matching_vertex_cover(g))
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, g)
        _, optima = _sweep_optima(p, all_ties=True)
        assert any(out & o for o in optima)


def test_oracles_are_deterministic():
    g = random_graph(10, 0.5, 4000)
    for name in GRAPH_ORACLES:
        oracle = sf.ORACLES[name]
        p = sf.make_problem(oracle.kind, g)
        assert oracle.run(p) == oracle.run(p)
