import copy
import dataclasses
import functools
import itertools
import random

import pytest

import subsetfpt as sf
from conftest import (
    all_graphs_upto,
    atlas_upto,
    closed_neighbourhoods_ref,
    ds_feasible_ref,
    is_feasible_ref,
    mmvc_feasible_ref,
    random_graph,
    random_system,
    uf_has_cycle,
    vc_feasible_ref,
)

TRIANGLE = sf.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = sf.Graph.from_edges(3, [(0, 1), (1, 2)])


@functools.cache
def _identity_columns(n):
    """Batch columns over all 2^n masks with position s standing for mask s:
    bit s of column e is set iff s holds e."""
    return tuple(
        int("".join("1" if s >> e & 1 else "0" for s in reversed(range(1 << n))), 2)
        for e in range(n)
    )


def _positions(got, n):
    """A batch result as one bool per position; higher bits are don't-care."""
    return [bool(got >> s & 1) for s in range(1 << n)]


def _slots_set(sub):
    return {name for name in sf.SubInstance.__slots__ if hasattr(sub, name)}


def _assert_batch_matches_scalar(p):
    n = p.universe_size
    got = p.feasible_batch(_identity_columns(n))
    assert _positions(got, n) == [p.feasible_mask(m) for m in range(1 << n)], p.label


RESTRICTABLE_GRAPH_KINDS = [
    sf.ProblemKind.VERTEX_COVER,
    sf.ProblemKind.INDEPENDENT_SET,
    sf.ProblemKind.CLIQUE,
    sf.ProblemKind.DOMINATING_SET,
]


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            sf.Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sf.Graph.from_edges(2, [(0, 2)])

    def test_rejects_negative_count_and_wrong_mask_count(self):
        with pytest.raises(ValueError, match="negative vertex count -1"):
            sf.Graph.from_edges(-1, [])
        for adj in ((0,), (0, 0, 0)):
            with pytest.raises(ValueError, match=f"{len(adj)} adjacency masks for 2 vertices"):
                sf.Graph(n=2, adj=adj)
        assert sf.Graph(n=0, adj=()) == sf.Graph.from_edges(0, [])

    def test_rejects_negative_mask(self):
        # Unrefused, it hangs brute-force dominating set: iter_bits of a
        # negative mask does not end.
        with pytest.raises(ValueError, match=r"vertex 0 lists -0b1, not a set of other vertices in \[0,2\)"):
            sf.Graph(n=2, adj=(-1, 0))

    def test_rejects_mask_bit_outside_range(self):
        # Unrefused, it makes brute-force vertex cover raise IndexError.
        with pytest.raises(ValueError, match=r"vertex 0 lists 0b100, not a set of other vertices in \[0,2\)"):
            sf.Graph(n=2, adj=(0b100, 0))

    def test_rejects_vertex_listing_itself(self):
        # The batch predicate skips a self-loop and the scalar one does not:
        # unrefused, brute-force independent set answers {0}, which
        # is_feasible calls infeasible.
        with pytest.raises(ValueError, match=r"vertex 0 lists 0b1, not a set of other vertices in \[0,1\)"):
            sf.Graph(n=1, adj=(1,))
        with pytest.raises(ValueError, match=r"vertex 1 lists 0b10, not a set of other vertices in \[0,2\)"):
            sf.Graph(n=2, adj=(0, 0b10))

    def test_duplicate_edges_collapse(self):
        g = sf.Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edges == frozenset({(0, 1)})

    def test_masks_alone_make_the_graph(self):
        assert sf.Graph(n=3, adj=(0b110, 0b001, 0b001)) == sf.Graph.from_edges(3, [(1, 0), (0, 2), (0, 1)])
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(2, 9)
            # sample order reverses half the pairs; 3n draws repeat some
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))]
            adj = [0] * n
            for u, v in pairs:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            g, h = sf.Graph(n=n, adj=tuple(adj)), sf.Graph.from_edges(n, pairs)
            assert g == h and hash(g) == hash(h)
            assert g.edges == h.edges == {(min(e), max(e)) for e in pairs}

    def test_rejects_asymmetric_masks(self):
        # Unrefused, vertex 0 lists 1 and vertex 1 lists nobody: the edge set
        # is from_edges(3, [(0, 1)])'s, yet brute-force dominating set
        # answered {1, 2}, against {0, 2} on that graph.
        for adj in ((0b10, 0, 0), (0, 0b1, 0)):
            with pytest.raises(ValueError, match="adjacency is not symmetric at vertex 1"):
                sf.Graph(n=3, adj=adj)
        real = sf.make_problem(sf.ProblemKind.DOMINATING_SET, sf.Graph.from_edges(3, [(0, 1)]))
        assert sf.brute_force_optimum(real).members == {0, 2}

    def test_masks_round_trip_and_one_bit_flip_is_refused(self, atlas):
        for g in atlas_upto(atlas, 6):
            assert sf.Graph(n=g.n, adj=g.adj) == g
            for v, u in itertools.permutations(range(g.n), 2):
                adj = list(g.adj)
                adj[v] ^= 1 << u
                with pytest.raises(ValueError, match="adjacency is not symmetric"):
                    sf.Graph(n=g.n, adj=tuple(adj))

    def test_adjacency_symmetric(self):
        g = random_graph(8, 0.5, 1)
        for u in range(8):
            for v in range(8):
                assert ((g.adj[u] >> v) & 1) == ((g.adj[v] >> u) & 1)


    def test_neighbourhood_masks_match_plain_sets(self):
        graphs = [*all_graphs_upto(5), *(random_graph(12, 0.3, s) for s in range(5))]
        for g in graphs:
            nbs = closed_neighbourhoods_ref(g)
            assert [set(sf.iter_bits(m)) for m in g.closed_nbs] == nbs
            everything = set(range(g.n))
            assert [set(sf.iter_bits(m)) for m in g.non_neighbours] == [everything - nb for nb in nbs]
            assert g.max_degree == max((len(nb) - 1 for nb in nbs), default=0)

    def test_complement_adjacency_is_non_neighbours(self):
        for g in all_graphs_upto(6):
            comp = sf.Graph(n=g.n, adj=g.non_neighbours)
            pairs = [e for e in itertools.combinations(range(g.n), 2) if e not in g.edges]
            assert comp == sf.Graph.from_edges(g.n, pairs)
            assert comp.edges == frozenset(pairs)

    def test_cached_masks_leave_equality_and_hash_alone(self):
        g, h = random_graph(8, 0.5, 1), random_graph(8, 0.5, 1)
        assert g.closed_nbs and g.non_neighbours and g.max_degree and g.edges  # now cached on g, not on h
        assert g == h and hash(g) == hash(h)


class TestSetSystem:
    def test_rejects_negative_ground(self):
        with pytest.raises(ValueError, match="negative ground set size -2"):
            sf.SetSystem.from_lists(-2, [[], []])
        assert sf.SetSystem.from_lists(0, [[], []]).sets == (0, 0)

    def test_rejects_mask_bit_outside_ground(self):
        # Unrefused, it makes brute force raise IndexError on both set kinds.
        with pytest.raises(ValueError, match=r"set 0 is 0b100, not a subset of \[0,2\)"):
            sf.SetSystem(n_ground=2, sets=(0b100, 0b11))
        with pytest.raises(ValueError, match=r"set 1 is -0b1, not a subset of \[0,2\)"):
            sf.SetSystem(n_ground=2, sets=(0b11, -1))

    @pytest.mark.parametrize("seed", range(5))
    def test_holders_are_the_transpose(self, seed):
        s = random_system(12, 3 + 4 * seed, 5, 3000 + seed)
        expected = [{i for i, m in enumerate(s.sets) if (m >> x) & 1} for x in range(s.n_ground)]
        assert [set(sf.iter_bits(h)) for h in s.holders] == expected
        assert s.holders is s.holders  # one transpose per set system
        assert s == random_system(12, 3 + 4 * seed, 5, 3000 + seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_conflicts_are_the_sets_met(self, seed):
        s = random_system(12, 3 + 4 * seed, 5, 3100 + seed)
        expected = [{j for j, t in enumerate(s.sets) if j != i and m & t} for i, m in enumerate(s.sets)]
        assert [set(sf.iter_bits(c)) for c in s.conflicts] == expected
        assert s.conflicts is s.conflicts  # one table per set system
        p = sf.make_problem(sf.ProblemKind.SET_PACKING, s)
        assert tuple(~c for c in s.conflicts) == tuple(map(p.restrict_fn, range(s.m)))


class TestFeasibility:
    def test_fvs_triangle_single_vertex(self):
        p = sf.make_problem(sf.ProblemKind.FEEDBACK_VERTEX_SET, TRIANGLE)
        assert sf.is_feasible(p, {0})
        assert not sf.is_feasible(p, set())

    def test_mmvc_path(self):
        p = sf.make_problem(sf.ProblemKind.MAX_MINIMAL_VERTEX_COVER, PATH3)
        assert sf.is_feasible(p, {0, 2})
        assert not sf.is_feasible(p, {0, 1})  # drop 0, {1} still covers

    def test_set_packing_disjointness(self):
        sys = sf.SetSystem.from_lists(4, [[0, 1], [2, 3], [0, 2]])
        p = sf.make_problem(sf.ProblemKind.SET_PACKING, sys)
        assert sf.is_feasible(p, {0, 1})
        assert not sf.is_feasible(p, {0, 2})

    def test_kind_data_mismatch(self):
        with pytest.raises(TypeError):
            sf.make_problem(sf.ProblemKind.SET_COVER, TRIANGLE)
        with pytest.raises(TypeError):
            sf.make_problem(
                sf.ProblemKind.VERTEX_COVER, sf.SetSystem.from_lists(2, [[0]])
            )

    @pytest.mark.parametrize("seed", range(20))
    def test_graph_predicates_match_reference(self, seed):
        g = random_graph(6, 0.5, 200 + seed)
        checks = [
            (sf.ProblemKind.VERTEX_COVER, vc_feasible_ref),
            (sf.ProblemKind.INDEPENDENT_SET, is_feasible_ref),
            (sf.ProblemKind.DOMINATING_SET, ds_feasible_ref),
        ]
        for kind, ref in checks:
            p = sf.make_problem(kind, g)
            for r in range(g.n + 1):
                for combo in itertools.combinations(range(g.n), r):
                    assert sf.is_feasible(p, combo) == ref(g, frozenset(combo))

    def test_mmvc_predicate_matches_reference_up_to_6(self, atlas):
        # every labelled graph up to 5 vertices, every graph up to 6 up to
        # isomorphism
        for g in itertools.chain(all_graphs_upto(5), atlas_upto(atlas, 6)):
            p = sf.make_problem(sf.ProblemKind.MAX_MINIMAL_VERTEX_COVER, g)
            for m in range(1 << g.n):
                assert p.feasible_mask(m) == mmvc_feasible_ref(g, sf.members_of(m)), (g.edges, m)

    @pytest.mark.parametrize("n,prob,seed", [(14, 0.2, 1), (15, 0.3, 2), (16, 0.15, 3)])
    def test_mmvc_batch_matches_reference(self, n, prob, seed):
        g = random_graph(n, prob, 1_100 + seed)
        p = sf.make_problem(sf.ProblemKind.MAX_MINIMAL_VERTEX_COVER, g)
        got = p.feasible_batch(_identity_columns(n))
        want = [mmvc_feasible_ref(g, sf.members_of(m)) for m in range(1 << n)]
        assert _positions(got, n) == want

    @pytest.mark.parametrize("seed", range(10))
    def test_batch_predicates_match_scalar(self, seed):
        g = random_graph(6, 0.5, 300 + seed)
        for kind in sf.ProblemKind:
            if kind in (sf.ProblemKind.SET_COVER, sf.ProblemKind.SET_PACKING):
                continue
            p = sf.make_problem(kind, g)
            for q in (p, sf.dualize(p)):
                _assert_batch_matches_scalar(q)

    @pytest.mark.parametrize("seed", range(10))
    def test_setsystem_batch_matches_scalar(self, seed):
        sys = random_system(6, 6, 3, 400 + seed)
        for kind in (sf.ProblemKind.SET_COVER, sf.ProblemKind.SET_PACKING):
            p = sf.make_problem(kind, sys)
            for q in (p, sf.dualize(p)):
                _assert_batch_matches_scalar(q)


def assert_restriction_sound(p, depth=2):
    """S' feasible for I(e)  <=>  S' + {e} feasible for I, for every
    selectable e and every S' within U - {e}; again inside each I(e) down to
    `depth` levels.  Sub-instances keep root ids, so no relabelling occurs."""
    full = (1 << p.universe_size) - 1
    for e in sf.iter_bits(p.alive):
        child = p.restrict(e)
        rest = full & ~(1 << e)
        # covering kinds keep every other element selectable; packing kinds
        # keep exactly those that can join e
        selectable = p.alive & rest
        if p.goal is sf.Goal.MAXIMIZE:
            selectable = sf.mask_of(
                x for x in sf.iter_bits(selectable) if p.feasible_mask((1 << x) | (1 << e))
            )
        assert child.alive == selectable, (p.label, p.chosen, e)
        for mask in range(1 << p.universe_size):
            if mask & rest == mask:
                assert child.feasible_mask(mask) == p.feasible_mask(
                    mask | (1 << e)
                ), (p.label, p.chosen, e, mask)
        if depth > 1:
            assert_restriction_sound(child, depth - 1)


def assert_restriction_commutes(p):
    """Restricting on a then b gives the sub-instance of b then a."""
    for a in sf.iter_bits(p.alive):
        pa = p.restrict(a)
        for b in sf.iter_bits(pa.alive):
            pb = p.restrict(b)
            assert (pb.alive >> a) & 1, (p.label, a, b)
            ab, ba = pa.restrict(b), pb.restrict(a)
            assert (ab.alive, ab.chosen) == (ba.alive, ba.chosen), (p.label, a, b)


class TestRestriction:
    def test_vertex_cover_path_restrict_middle(self):
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, PATH3)
        r = p.restrict(1)
        assert (r.alive, r.chosen) == (0b101, 0b010)
        assert r.feasible_mask(0)  # no edges remain

    def test_independent_set_triangle_restrict(self):
        p = sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, TRIANGLE)
        r = p.restrict(0)
        assert r.alive == 0
        assert r.feasible_mask(0)

    def test_set_cover_restrict_residual(self):
        sys = sf.SetSystem.from_lists(4, [[0, 1], [2, 3], [0, 2]])
        p = sf.make_problem(sf.ProblemKind.SET_COVER, sys)
        r = p.restrict(0)
        assert (r.alive, r.chosen) == (0b110, 0b001)
        assert r.feasible_mask(0b010)  # {2,3} covers the residual {2,3}
        assert not r.feasible_mask(0b100)  # {0,2} misses 3
        assert_restriction_sound(p)

    def test_unsupported_kinds_raise(self):
        for kind in (
            sf.ProblemKind.FEEDBACK_VERTEX_SET,
            sf.ProblemKind.MAX_MINIMAL_VERTEX_COVER,
            sf.ProblemKind.MIN_INDEPENDENT_DOMINATING_SET,
        ):
            p = sf.make_problem(kind, TRIANGLE)
            with pytest.raises(sf.UnsupportedRestriction):
                p.restrict(0)

    def test_dominating_set_keeps_dominated_vertices_selectable(self):
        # star: restricting on a leaf must keep the center available
        g = sf.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        p = sf.make_problem(sf.ProblemKind.DOMINATING_SET, g)
        r = p.restrict(1)
        assert r.alive == 0b1101
        # {center} completes the solution
        assert r.feasible_mask(0b0001)

    @pytest.mark.parametrize("kind", RESTRICTABLE_GRAPH_KINDS)
    def test_soundness_all_graphs_up_to_4(self, kind):
        for g in all_graphs_upto(4):
            assert_restriction_sound(sf.make_problem(kind, g))

    @pytest.mark.parametrize("kind", RESTRICTABLE_GRAPH_KINDS)
    def test_soundness_atlas_up_to_6(self, kind, atlas):
        for g in atlas_upto(atlas, 6):
            assert_restriction_sound(sf.make_problem(kind, g))

    @pytest.mark.parametrize("seed", range(30))
    def test_soundness_random_set_systems(self, seed):
        sys = random_system(
            n_ground=(seed % 6) + 3, m=(seed % 7) + 2, max_size=3, seed=500 + seed
        )
        assert_restriction_sound(sf.make_problem(sf.ProblemKind.SET_COVER, sys))
        assert_restriction_sound(sf.make_problem(sf.ProblemKind.SET_PACKING, sys))

    def test_nested_restriction_keeps_root_ids(self):
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, random_graph(6, 0.5, 9))
        r2 = p.restrict(2).restrict(0)
        assert (r2.alive, r2.chosen) == (0b111010, 0b000101)
        with pytest.raises(ValueError):
            r2.restrict(2)  # already chosen

    @pytest.mark.parametrize("kind", sorted(sf.RESTRICTABLE, key=lambda k: k.value))
    def test_restriction_keeps_every_root_field(self, kind):
        set_kind = kind in (sf.ProblemKind.SET_COVER, sf.ProblemKind.SET_PACKING)
        p = sf.make_problem(kind, random_system(6, 6, 3, 77) if set_kind else random_graph(6, 0.5, 77))
        own = {"feasible_mask", "feasible_batch", "alive", "chosen"}
        shared = [f.name for f in dataclasses.fields(sf.SubsetProblem) if f.name not in own]
        assert set(shared) == {"label", "universe_size", "goal", "kind", "data", "restrict_fn"}
        child = next(c for c in map(p.restrict, sf.iter_bits(p.alive)) if c.alive)
        grandchild = child.restrict(min(sf.iter_bits(child.alive)))
        for sub in (child, grandchild):
            assert type(sub) is sf.SubInstance and sub.root is p
            assert not hasattr(sub, "__dict__")
            # The two predicates are built on first read.
            assert _slots_set(sub) == {"root", "data", "restrict_fn", "alive", "chosen"}
            for name in shared:
                assert getattr(sub, name) is getattr(p, name), (kind, name)
            _assert_batch_matches_scalar(sub)
            assert _slots_set(sub) == set(sf.SubInstance.__slots__)

    @pytest.mark.parametrize("kind", sorted(sf.RESTRICTABLE, key=lambda k: k.value))
    def test_sub_instance_predicates_built_on_first_read(self, kind):
        set_kind = kind in sf.problems.SET_KINDS
        p = sf.make_problem(kind, random_system(6, 6, 3, 78) if set_kind else random_graph(6, 0.5, 78))
        n = p.universe_size
        for e in sf.iter_bits(p.alive):
            child = p.restrict(e)
            for sub in [child] + [child.restrict(f) for f in sf.iter_bits(child.alive)]:
                # The eager semantics: S within alive with S | chosen feasible at p.
                want = [not m & ~sub.alive and p.feasible_mask(m | sub.chosen) for m in range(1 << n)]
                assert [sub.feasible_mask(m) for m in range(1 << n)] == want, (kind, sub.chosen)
                assert _positions(sub.feasible_batch(_identity_columns(n)), n) == want
                assert sub.feasible_mask is sub.feasible_mask
                assert sub.feasible_batch is sub.feasible_batch
        fresh = p.restrict(min(sf.iter_bits(p.alive)))
        assert callable(fresh.feasible_mask)  # built before the copy, which keeps it
        dup = copy.copy(fresh)
        assert (dup.alive, dup.chosen) == (fresh.alive, fresh.chosen) and dup.root is p
        assert dup.feasible_mask is fresh.feasible_mask
        for obj in (fresh, p):
            with pytest.raises(AttributeError):
                getattr(obj, "nope")
        with pytest.raises(AttributeError):
            fresh.label = "renamed"  # read through the root

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", sorted(sf.RESTRICTABLE, key=lambda k: k.value))
    def test_sub_instance_batch_matches_scalar(self, kind, seed):
        set_kind = kind in sf.problems.SET_KINDS
        p = sf.make_problem(kind, random_system(6, 6, 3, 90 + seed) if set_kind
                            else random_graph(6, 0.5, 90 + seed))
        for e in sf.iter_bits(p.alive):
            child = p.restrict(e)
            _assert_batch_matches_scalar(child)
            for f in sf.iter_bits(child.alive):
                _assert_batch_matches_scalar(child.restrict(f))

    @pytest.mark.parametrize("kind", RESTRICTABLE_GRAPH_KINDS)
    def test_restriction_commutes_all_graphs_up_to_5(self, kind):
        for g in all_graphs_upto(5):
            assert_restriction_commutes(sf.make_problem(kind, g))

    @pytest.mark.parametrize("seed", range(30))
    def test_restriction_commutes_random_set_systems(self, seed):
        sys = random_system(
            n_ground=(seed % 6) + 3, m=(seed % 7) + 2, max_size=3, seed=500 + seed
        )
        assert_restriction_commutes(sf.make_problem(sf.ProblemKind.SET_COVER, sys))
        assert_restriction_commutes(sf.make_problem(sf.ProblemKind.SET_PACKING, sys))


K = sf.ProblemKind
COVERING_KINDS = (K.VERTEX_COVER, K.DOMINATING_SET, K.SET_COVER)
PACKING_KINDS = (K.INDEPENDENT_SET, K.CLIQUE, K.SET_PACKING)


def _assert_goal_follows_core(p):
    """Covering kinds minimize and choosing e keeps every other element;
    packing kinds maximize and choosing e drops exactly the f with {e, f}
    infeasible, its conflicts."""
    covering = p.kind in COVERING_KINDS
    assert p.kind in COVERING_KINDS + PACKING_KINDS
    assert p.goal is (sf.Goal.MINIMIZE if covering else sf.Goal.MAXIMIZE)
    for e in sf.iter_bits(p.alive):
        others = p.alive & ~(1 << e)
        if not covering:
            others = sf.mask_of(f for f in sf.iter_bits(others) if p.feasible_mask(1 << e | 1 << f))
        assert p.restrict(e).alive == others, (p.label, e)


class TestKindTables:
    def test_goals_restrictable_and_set_kinds_keep_their_values(self):
        goals = sf.problems.GOALS
        assert set(goals) == set(sf.ProblemKind)
        assert goals == {
            **dict.fromkeys(COVERING_KINDS, sf.Goal.MINIMIZE),
            **dict.fromkeys(PACKING_KINDS, sf.Goal.MAXIMIZE),
            K.FEEDBACK_VERTEX_SET: sf.Goal.MINIMIZE,
            K.MAX_MINIMAL_VERTEX_COVER: sf.Goal.MAXIMIZE,
            K.MIN_INDEPENDENT_DOMINATING_SET: sf.Goal.MINIMIZE,
        }
        assert sf.RESTRICTABLE == frozenset(COVERING_KINDS + PACKING_KINDS)
        assert sf.problems.SET_KINDS == {K.SET_COVER, K.SET_PACKING}

    def test_every_kind_builds_with_its_goal_and_restrictability(self):
        g, sys = random_graph(6, 0.5, 21), random_system(6, 6, 3, 21)
        for kind in sf.ProblemKind:
            p = sf.make_problem(kind, sys if kind in sf.problems.SET_KINDS else g)
            assert p.kind is kind and p.goal is sf.problems.GOALS[kind]
            assert (p.restrict_fn is not None) == (kind in sf.RESTRICTABLE)

    @pytest.mark.parametrize("kind", RESTRICTABLE_GRAPH_KINDS)
    def test_goal_follows_core_all_graphs_up_to_4(self, kind):
        for g in all_graphs_upto(4):
            _assert_goal_follows_core(sf.make_problem(kind, g))

    @pytest.mark.parametrize("seed", range(30))
    def test_goal_follows_core_random_set_systems(self, seed):
        sys = random_system(n_ground=(seed % 6) + 3, m=(seed % 7) + 2, max_size=3, seed=700 + seed)
        for kind in (K.SET_COVER, K.SET_PACKING):
            _assert_goal_follows_core(sf.make_problem(kind, sys))


class TestDualities:
    @pytest.mark.parametrize("seed", range(40))
    def test_mmvc_equals_n_minus_mids(self, seed):
        g = random_graph((seed % 7) + 3, [0.2, 0.5, 0.8][seed % 3], 600 + seed)
        mmvc = sf.brute_force_optimum(
            sf.make_problem(sf.ProblemKind.MAX_MINIMAL_VERTEX_COVER, g)
        )
        mids = sf.brute_force_optimum(
            sf.make_problem(sf.ProblemKind.MIN_INDEPENDENT_DOMINATING_SET, g)
        )
        assert isinstance(mmvc, sf.EvaluatedSolution)
        assert isinstance(mids, sf.EvaluatedSolution)
        assert mmvc.value == g.n - mids.value

    @pytest.mark.parametrize("seed", range(40))
    def test_clique_equals_is_on_complement(self, seed):
        g = random_graph((seed % 8) + 2, 0.5, 700 + seed)
        clq = sf.brute_force_optimum(sf.make_problem(sf.ProblemKind.CLIQUE, g))
        ind = sf.brute_force_optimum(
            sf.make_problem(sf.ProblemKind.INDEPENDENT_SET, sf.Graph(n=g.n, adj=g.non_neighbours))
        )
        assert clq.value == ind.value


def _assert_forest_batch(g, acyclic):
    """The FVS predicates and their duals', batch and scalar, against
    acyclic[keep], whether g induces a forest on the vertex mask keep: S is
    a feedback vertex set iff V - S induces one."""
    n, full = g.n, (1 << g.n) - 1
    p = sf.make_problem(sf.ProblemKind.FEEDBACK_VERTEX_SET, g)
    d = sf.dualize(p)
    fvs = [acyclic[full & ~m] for m in range(1 << n)]
    cols = _identity_columns(n)
    assert _positions(p.feasible_batch(cols), n) == fvs
    assert _positions(d.feasible_batch(cols), n) == acyclic
    assert list(map(p.feasible_mask, range(1 << n))) == fvs
    assert list(map(d.feasible_mask, range(1 << n))) == acyclic


def _induced_acyclic(g, keep):
    return not uf_has_cycle(g.n, [(u, v) for u, v in sorted(g.edges) if keep >> u & keep >> v & 1])


class TestFeedbackVertexSet:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_predicates_match_union_find_all_graphs(self, n):
        # all_graphs_upto lists the graphs on n vertices by their edge bits
        # over the pairs in combinations order, so the subgraph that graph b
        # induces on keep is graph b & within[keep] with keep's complement
        # isolated: one union-find call per graph covers every mask.
        graphs = [g for g in all_graphs_upto(n) if g.n == n]
        acyclic = [not uf_has_cycle(n, sorted(g.edges)) for g in graphs]
        pairs = list(itertools.combinations(range(n), 2))
        within = [sf.mask_of(i for i, (u, v) in enumerate(pairs) if keep >> u & keep >> v & 1)
                  for keep in range(1 << n)]
        for b, g in enumerate(graphs):
            assert g.edges == {pairs[i] for i in sf.iter_bits(b)}
            _assert_forest_batch(g, [acyclic[b & w] for w in within])

    @pytest.mark.parametrize("seed", range(40))
    def test_predicates_match_union_find_random_graphs(self, seed):
        g = random_graph(7 + seed % 3, [0.2, 0.35, 0.5, 0.7][seed % 4], 1_300 + seed)
        _assert_forest_batch(g, [_induced_acyclic(g, keep) for keep in range(1 << g.n)])

    @pytest.mark.parametrize("chunk", range(10))
    def test_acyclicity_agrees_with_union_find(self, chunk):
        # 100 random graphs per chunk, 1000 total
        for i in range(100):
            seed = chunk * 100 + i
            g = random_graph(8, [0.15, 0.3, 0.5][seed % 3], 800 + seed)
            full = (1 << g.n) - 1
            got = sf.problems._two_core(g, full) != 0
            want = uf_has_cycle(g.n, sorted(g.edges))
            assert got == want

    def test_fvs_optimum_on_two_triangles(self):
        g = sf.Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        p = sf.make_problem(sf.ProblemKind.FEEDBACK_VERTEX_SET, g)
        assert sf.brute_force_optimum(p).value == 2
