import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import subsetfpt as sf
from subsetfpt import approx
from subsetfpt.problems import RESTRICTABLE, SET_KINDS
from conftest import (
    _sweep_optima,
    all_graphs_upto,
    atlas_upto,
    closed_neighbourhoods_ref,
    greedy_cover_ref,
    greedy_packing_ref,
    matching_cover_ref,
    random_graph,
    random_system,
)

TRIANGLE = sf.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = sf.Graph.from_edges(3, [(0, 1), (1, 2)])
STAR = sf.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def _run_on_root(name, data):
    """The picks of oracle `name` on the root problem of its kind over data."""
    oracle = sf.ORACLES[name]
    return oracle.run(sf.make_problem(oracle.kind, data))


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
        assert _run_on_root("greedy-set-cover", sys) == [0, 1]

    def test_single_covering_set(self):
        sys = sf.SetSystem.from_lists(3, [[0, 1, 2]])
        assert _run_on_root("greedy-set-cover", sys) == [0]

    def test_both_singletons_required(self):
        sys = sf.SetSystem.from_lists(2, [[0], [1]])
        assert _run_on_root("greedy-set-cover", sys) == [0, 1]

    def test_uncoverable_raises(self):
        with pytest.raises(sf.InfeasibleInstance):
            _run_on_root("greedy-set-cover", sf.SetSystem.from_lists(2, [[0]]))


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


def _picks_or_infeasible(scan, covers, target):
    """The ids a covering scan of target yields, or "infeasible" if it ends
    on (-1, 0).  Checks each gain against a recount on what is left."""
    items, picks = list(scan), []
    for i, gain in items:
        if i < 0:
            assert gain == 0 and target and (i, gain) == items[-1]
            return "infeasible"
        assert gain == (covers[i] & target).bit_count() > 0
        picks.append(i)
        target &= ~covers[i]
    assert not target
    return picks


class TestGainCounters:
    """The bit-sliced gain counters pick what the plain scan picks, in the
    same order with the same gains, and end on (-1, 0) where it does."""

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
                scan = list(approx._lazy_scan(covers, target))
                counters = list(approx._counter_scan(covers, holders, target))
                assert counters == scan
                scan = _picks_or_infeasible(scan, covers, target)
                outcomes.add(scan == "infeasible")
                gains = [(c & target).bit_count() for c in covers]
                best = max(gains, default=0)
                top = sum(1 << i for i, gain in enumerate(gains) if gain == best) if best else 0
                assert approx._top_gain(approx._gain_planes(holders, target)) == (top, best)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("seed", range(10))
    def test_max_residual_size_in_both_regimes(self, seed):
        """greedy-set-cover's ratio is H of the largest number of ground
        elements one set adds to the chosen sets (at least 1), on narrow and
        wide systems, and on an uncoverable one without raising."""
        rng = random.Random(100 + seed)
        ratio = sf.ORACLES["greedy-set-cover"].ratio
        for n_ground, m, gone in ((10, 10, 0), (10, 39, 0), (10, 40, 0), (10, 80, 0), (10, 12, 0b1000), (10, 41, 0b1000)):
            covers = tuple(c & ~gone for c in _random_covers(rng, n_ground, m))
            sys = sf.SetSystem(n_ground, covers)
            assert approx._is_wide(sys.m, sys.n_ground) == (m >= 4 * n_ground)
            assert not gone or 0 in sys.holders  # no set holds the gone element
            p = sf.make_problem(sf.ProblemKind.SET_COVER, sys)
            for e in rng.sample(range(m), 3):
                p = p.restrict(e)
                target = approx._residual(sys.sets, n_ground, p.chosen)
                expected = max((s & target).bit_count() for s in sys.sets)
                assert ratio(p) == sf.harmonic(max(expected, 1))

    def test_wide_system_takes_the_counters(self, monkeypatch):
        oracle = sf.ORACLES["greedy-set-cover"]
        p = sf.make_problem(sf.ProblemKind.SET_COVER, random_system(10, 40, 3, 7)).restrict(0).restrict(2)
        assert p.chosen == 0b101
        expected = oracle.run(p)

        def refuse(*args):
            raise AssertionError("a wide system took the scan")

        monkeypatch.setattr(approx, "_lazy_scan", refuse)
        assert oracle.run(p) == expected
        assert len(expected) > 1
        with pytest.raises(AssertionError):
            _run_on_root("greedy-set-cover", random_system(10, 39, 3, 7))


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
                    scans = (approx._lazy_scan(covers, target), approx._counter_scan(covers, holders, target))
                    if expected is None:
                        for scan in scans:
                            assert _picks_or_infeasible(scan, covers, target) == "infeasible"
                        with pytest.raises(sf.InfeasibleInstance):
                            approx._greedy_cover(covers, holders, chosen)
                        continue
                    assert not set(sf.iter_bits(chosen)) & set(expected)
                    for scan in scans:
                        assert _picks_or_infeasible(scan, covers, target) == expected
                    assert approx._greedy_cover(covers, holders, chosen) == expected
        assert infeasible == wide == {True, False} and tied

    def test_greedy_dominating_on_all_graphs_up_to_6(self):
        for g in all_graphs_upto(6):
            expected = greedy_cover_ref(closed_neighbourhoods_ref(g), set(range(g.n)))
            full = (1 << g.n) - 1
            assert _picks_or_infeasible(approx._lazy_scan(g.closed_nbs, full), g.closed_nbs, full) == expected
            assert _run_on_root("greedy-dominating", g) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_dominating_on_gnp_600(self, seed):
        g = random_graph(600, 0.02, 70000 + seed)
        expected = greedy_cover_ref(closed_neighbourhoods_ref(g), set(range(g.n)))
        full = (1 << g.n) - 1
        assert _picks_or_infeasible(approx._lazy_scan(g.closed_nbs, full), g.closed_nbs, full) == expected
        p = sf.make_problem(sf.ProblemKind.DOMINATING_SET, g)
        assert sf.ORACLES["greedy-dominating"].run(p) == expected


class TestMatchingVertexCover:
    def test_star_takes_first_edge_endpoints(self):
        assert _run_on_root("matching-vc", STAR) == [0, 1]

    def test_triangle_matches_optimum(self):
        assert len(_run_on_root("matching-vc", TRIANGLE)) == 2

    def test_edgeless(self):
        assert _run_on_root("matching-vc", sf.Graph.from_edges(3, [])) == []


class TestGreedyDominating:
    def test_path_center(self):
        assert _run_on_root("greedy-dominating", PATH3) == [1]

    def test_edgeless_all_vertices(self):
        g = sf.Graph.from_edges(3, [])
        assert _run_on_root("greedy-dominating", g) == [0, 1, 2]

    def test_star_center(self):
        assert _run_on_root("greedy-dominating", STAR) == [0]


class TestGreedyMIS:
    def test_path_endpoints(self):
        assert _run_on_root("greedy-mis", PATH3) == [0, 2]

    def test_triangle_single(self):
        assert _run_on_root("greedy-mis", TRIANGLE) == [0]

    def test_edgeless_all(self):
        g = sf.Graph.from_edges(4, [])
        assert _run_on_root("greedy-mis", g) == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(30))
    def test_output_is_independent_dominating(self, seed):
        g = random_graph((seed % 8) + 2, 0.4, 900 + seed)
        out = _run_on_root("greedy-mis", g)
        p_is = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, g)
        p_mids = sf.make_problem(
            sf.ProblemKind.MIN_INDEPENDENT_DOMINATING_SET, g
        )
        assert sf.is_feasible(p_is, out)
        assert sf.is_feasible(p_mids, out)


class TestGreedyClique:
    def test_triangle_whole(self):
        assert _run_on_root("greedy-clique", TRIANGLE) == [0, 1, 2]

    def test_edgeless_single_vertex(self):
        assert len(_run_on_root("greedy-clique", sf.Graph.from_edges(2, []))) == 1

    def test_path_edge(self):
        assert len(_run_on_root("greedy-clique", PATH3)) == 2


class TestSharedGreedies:
    """Each core has one greedy: the clique greedy is the independent-set
    greedy on the complement, and the dominating-set greedy is the set-cover
    greedy on the closed neighbourhoods: the private greedies on every mask,
    and the oracles on every sub-instance of depth up to 2."""

    def test_clique_is_mis_of_complement(self):
        for g in all_graphs_upto(5):
            non_edges = [e for e in itertools.combinations(range(g.n), 2) if e not in g.edges]
            clique = sf.make_problem(sf.ProblemKind.CLIQUE, g)
            mis = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, sf.Graph.from_edges(g.n, non_edges))
            for alive in range(1 << g.n):
                assert (approx._greedy_packing(clique.data.non_neighbours, alive)
                        == approx._greedy_packing(mis.data.adj, alive))
            for c, m in zip(_with_subs(clique), _with_subs(mis), strict=True):
                assert sf.ORACLES["greedy-clique"].run(c) == sf.ORACLES["greedy-mis"].run(m)

    def test_dominating_is_set_cover_of_closed_neighbourhoods(self):
        for g in all_graphs_upto(5):
            dom = sf.make_problem(sf.ProblemKind.DOMINATING_SET, g)
            sys = sf.SetSystem.from_lists(g.n, closed_neighbourhoods_ref(g))
            cover = sf.make_problem(sf.ProblemKind.SET_COVER, sys)
            for chosen in range(1 << g.n):
                assert (approx._greedy_cover(dom.data.closed_nbs, dom.data.closed_nbs, chosen)
                        == approx._greedy_cover(cover.data.sets, cover.data.holders, chosen))
            for d, c in zip(_with_subs(dom), _with_subs(cover), strict=True):
                assert sf.ORACLES["greedy-dominating"].run(d) == sf.ORACLES["greedy-set-cover"].run(c)


def _with_subs(p):
    """p and, if restrictable, its sub-instances of depth 1 and 2."""
    yield p
    if p.restrict_fn is None:
        return
    for e in sf.iter_bits(p.alive):
        child = p.restrict(e)
        yield child
        for f in sf.iter_bits(child.alive):
            yield child.restrict(f)


def _reference_picks(name, p):
    """The picks of built-in oracle `name` on p, in order, by the plain-set
    references on the instance's sets or edges and p's masks; None where a
    ground element is in no cover."""
    alive, chosen = set(sf.iter_bits(p.alive)), set(sf.iter_bits(p.chosen))

    def cover_picks(covers, n_ground):
        return greedy_cover_ref(covers, set(range(n_ground)).difference(*(covers[i] for i in chosen)))

    if name == "greedy-set-cover":
        return cover_picks([set(sf.iter_bits(s)) for s in p.data.sets], p.data.n_ground)
    closed = closed_neighbourhoods_ref(p.data)
    neighbours = [nb - {v} for v, nb in enumerate(closed)]
    if name == "greedy-dominating":
        return cover_picks(closed, p.data.n)
    if name == "matching-vc":
        return matching_cover_ref(neighbours, alive)
    if name == "greedy-clique":
        return greedy_packing_ref([set(range(p.data.n)) - nb for nb in closed], alive)
    return greedy_packing_ref(neighbours, alive)  # greedy-mis and greedy-ids


@pytest.mark.parametrize("name", list(sf.ORACLES))
def test_oracle_output_contract(name, atlas):
    """run returns distinct ids, within alive on the packing kinds and
    outside chosen on the covering kinds, in the order of the plain-set
    reference's picks, on roots and sub-instances alike."""
    oracle = sf.ORACLES[name]
    if oracle.kind in SET_KINDS:
        datas = [random_system(6, 3 + seed % 5, 3, 900 + seed) for seed in range(40)]
        datas.append(sf.SetSystem.from_lists(3, [[0], [1], [0, 1]]))  # no set holds 2
    else:
        datas = atlas_upto(atlas, 6)
    covering = oracle.goal is sf.Goal.MINIMIZE and oracle.kind in RESTRICTABLE
    depths, infeasible = set(), set()
    for data in datas:
        for p in _with_subs(sf.make_problem(oracle.kind, data)):
            expected = _reference_picks(name, p)
            infeasible.add(expected is None)
            if expected is None:
                with pytest.raises(sf.InfeasibleInstance):
                    oracle.run(p)
                continue
            out = oracle.run(p)
            assert len(set(out)) == len(out), (p.label, p.chosen)
            mask = sf.mask_of(out)
            assert not (mask & p.chosen if covering else mask & ~p.alive), (p.label, p.chosen)
            assert list(out) == expected, (p.label, p.chosen)
            depths.add(p.chosen.bit_count())
    assert depths == ({0, 1, 2} if oracle.kind in RESTRICTABLE else {0})
    assert infeasible == ({False, True} if oracle.kind in SET_KINDS else {False})


@pytest.mark.parametrize("derived", [False, True], ids=["declared", "derived"])
@pytest.mark.parametrize("name", list(sf.ORACLES))
def test_bounded_is_run_cut_at_ratio_times_room(name, derived, atlas):
    """bounded(root, alive, chosen, room) keeps its contract per goal, for
    every room 0..n and None, on roots and sub-instances of depth 1 and 2.
    Under minimization it is None exactly where run's output has more than
    ratio * room ids, and that output otherwise; under maximization it is
    run's output at every room.  Where run raises InfeasibleInstance,
    bounded raises it at every room.  The same holds for the oracle rebuilt
    from run and ratio alone, which under maximization never calls ratio."""
    oracle = sf.ORACLES[name]
    minimize = oracle.goal is sf.Goal.MINIMIZE
    ratio = oracle.ratio
    if derived:
        oracle = sf.ApproxOracle(name, oracle.goal, kind=oracle.kind, run=oracle.run,
                                 ratio=ratio if minimize else lambda p: 1 / 0)
        assert oracle.bounded is None
    if oracle.kind in SET_KINDS:
        datas = [random_system(6, 3 + seed % 5, 3, 900 + seed) for seed in range(40)]
        datas.append(sf.SetSystem.from_lists(6, [[1], [2], [3], [4], [5]]))  # no set holds 0
    else:
        datas = atlas_upto(atlas, 6)
    bounded = oracle.bounded_call()
    cut, whole, infeasible = set(), set(), False
    for data in datas:
        root = sf.make_problem(oracle.kind, data)
        for p in _with_subs(root):
            rooms = [*range(p.universe_size + 1), None]
            try:
                out = oracle.run(p)
            except sf.InfeasibleInstance:
                infeasible = True
                for room in rooms:
                    with pytest.raises(sf.InfeasibleInstance):
                        bounded(root, p.alive, p.chosen, room)
                continue
            r = ratio(p)
            for room in rooms:
                got = bounded(root, p.alive, p.chosen, room)
                over = minimize and room is not None and len(out) * r.denominator > r.numerator * room
                assert (got is None) == over, (p.label, p.chosen, room)
                if not over:
                    assert list(got) == list(out), (p.label, p.chosen, room)
                (cut if over else whole).add(p.chosen.bit_count())
    depths = {0, 1, 2} if oracle.kind in RESTRICTABLE else {0}
    assert whole == depths
    assert cut == (depths if minimize else set())
    assert infeasible == (oracle.kind in SET_KINDS)


@pytest.mark.parametrize("name", list(sf.ORACLES))
def test_replacing_run_or_ratio_keeps_the_declared_bounded(name):
    oracle = sf.ORACLES[name]
    assert oracle.bounded is not None
    for field in ("run", "ratio"):
        changed = replace(oracle, **{field: lambda p: 1 / 0})
        assert changed.bounded is oracle.bounded and changed.bounded_call() is oracle.bounded


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
            out = sf.mask_of(sf.ORACLES["matching-vc"].run(p))
            _, optima = _sweep_optima(p, all_ties=True)
            assert any(out & o for o in optima), sorted(g.edges)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_graphs_n8(self, seed):
        g = random_graph(8, 0.4, 3000 + seed)
        if not g.edges:
            return
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, g)
        out = sf.mask_of(sf.ORACLES["matching-vc"].run(p))
        _, optima = _sweep_optima(p, all_ties=True)
        assert any(out & o for o in optima)


def test_oracles_are_deterministic():
    g = random_graph(10, 0.5, 4000)
    for name in GRAPH_ORACLES:
        oracle = sf.ORACLES[name]
        p = sf.make_problem(oracle.kind, g)
        assert oracle.run(p) == oracle.run(p)
