"""Concrete subset-problem encodings over graphs and set systems.

Universe convention: vertices for graph problems, set indices for set-system
problems (the ground set is metadata).  Each kind is entered in one of three
tables, and its goal and restrictability follow from the table:

* _HITTERS: covering kinds (vertex cover, dominating set, set cover) minimize
  and are closed under supersets.  Each is a list of hitter masks, one per
  ground element: the elements that cover it (the two endpoints of an edge,
  N[v], the sets holding x).  S is feasible iff it meets every hitter, and
  choosing an element keeps all others selectable.
* _CONFLICTS: packing kinds (independent set, clique, set packing) maximize
  and are closed under subsets.  Each is a tuple of conflict masks, one per
  element (adj[v], the non-neighbours of v, the other sets meeting set i).
  S is feasible iff no member's conflicts meet S, and choosing e keeps
  ~conflicts[e].
* _OTHERS: the kinds with no restriction, each with its goal and its own
  pair of predicates.  Min independent dominating set is packing(adj) and
  covering(N[v]).  Max minimal vertex cover is its dual: S is a minimal
  vertex cover iff V - S is a maximal independent set, that is, an
  independent dominating set.  Feedback vertex set peels leaves in both
  predicates: S is feasible iff peeling V - S leaves no 2-core.

Every kind has a scalar bitmask predicate and a bit-sliced batch predicate;
the first two tables also give the restrict_fn(e) mask from which
SubsetProblem.restrict builds I(e).  A graph stores its adjacency masks
and derives its edge set, as a set system derives its holders and conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Callable, Iterable

from .core import (
    Goal,
    SubsetProblem,
    _chunk_ones,
    dualize,
    iter_bits,
)


class ProblemKind(Enum):
    VERTEX_COVER = "vertex-cover"
    INDEPENDENT_SET = "independent-set"
    CLIQUE = "clique"
    DOMINATING_SET = "dominating-set"
    SET_COVER = "set-cover"
    SET_PACKING = "set-packing"
    FEEDBACK_VERTEX_SET = "feedback-vertex-set"
    MAX_MINIMAL_VERTEX_COVER = "max-minimal-vertex-cover"
    MIN_INDEPENDENT_DOMINATING_SET = "min-independent-dominating-set"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: stores its adjacency masks, derives its edges.
    The masks must be symmetric: v in adj[u] iff u in adj[v]."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        if len(self.adj) != self.n:
            raise ValueError(f"{len(self.adj)} adjacency masks for {self.n} vertices")
        listed_by = [0] * self.n  # listed_by[v]: the vertices u < v whose adj[u] holds v
        for v, a in enumerate(self.adj):
            if a >> self.n or a >> v & 1:  # a >> n is nonzero for a < 0 too
                raise ValueError(f"vertex {v} lists {a:#b}, not a set of other vertices in [0,{self.n})")
            if a & (1 << v) - 1 != listed_by[v]:
                raise ValueError(f"adjacency is not symmetric at vertex {v}")
            for d in iter_bits(a >> v):  # each pair v < v + d once
                listed_by[v + d] |= 1 << v

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range [0,{n})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        g = object.__new__(cls)  # skips __post_init__: these masks are valid by construction
        g.__dict__.update(n=n, adj=tuple(adj))
        return g

    # Built on first use; equality and hashing still compare the fields only.
    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Each edge once, as (u, v) with u < v."""
        return frozenset((u, v) for u, nb in enumerate(self.adj) for v in iter_bits(nb) if u < v)

    @cached_property
    def max_degree(self) -> int:
        return max(map(int.bit_count, self.adj), default=0)

    @cached_property
    def closed_nbs(self) -> tuple[int, ...]:
        """N[v] = adj[v] plus v, for each vertex v."""
        return tuple(a | (1 << v) for v, a in enumerate(self.adj))

    @cached_property
    def non_neighbours(self) -> tuple[int, ...]:
        """The vertices neither v nor adjacent to v, for each vertex v."""
        full = (1 << self.n) - 1
        return tuple(full & ~nb for nb in self.closed_nbs)


@dataclass(frozen=True)
class SetSystem:
    """m subsets of a ground set {0, ..., n_ground-1}, stored as bitmasks.

    Sets may repeat; indices keep them distinct.
    """

    n_ground: int
    sets: tuple[int, ...]

    def __post_init__(self):
        if self.n_ground < 0:
            raise ValueError(f"negative ground set size {self.n_ground}")
        for i, m in enumerate(self.sets):
            if m >> self.n_ground:  # nonzero for m < 0 too
                raise ValueError(f"set {i} is {m:#b}, not a subset of [0,{self.n_ground})")

    @classmethod
    def from_lists(cls, n_ground: int, sets: Iterable[Iterable[int]]) -> "SetSystem":
        masks = []
        for s in sets:
            m = 0
            for e in s:
                if not 0 <= e < n_ground:
                    raise ValueError(f"ground element {e} outside [0,{n_ground})")
                m |= 1 << e
            masks.append(m)
        return cls(n_ground=n_ground, sets=tuple(masks))

    @property
    def m(self) -> int:
        return len(self.sets)

    # Built on first use, like Graph.closed_nbs.
    @cached_property
    def holders(self) -> tuple[int, ...]:
        """For each ground element, the mask of the sets that hold it."""
        holders = [0] * self.n_ground
        for i, s in enumerate(self.sets):
            for x in iter_bits(s):
                holders[x] |= 1 << i
        return tuple(holders)

    @cached_property
    def conflicts(self) -> tuple[int, ...]:
        """For each set, the mask of the other sets that meet it."""
        holders = self.holders
        conflicts = []
        for i, s in enumerate(self.sets):
            c = 0
            for x in iter_bits(s):
                c |= holders[x]
            conflicts.append(c & ~(1 << i))
        return tuple(conflicts)


def _covering(hitters: Callable[[], Iterable[int]]) -> tuple[Callable, Callable]:
    """Scalar and batch predicates of a covering kind: S is feasible iff it
    meets every hitter, the mask of the elements that cover one ground
    element.  The batch predicate ANDs, over the hitters, the OR of their
    members' columns.  The distinct hitters are built on the first predicate
    call, so large instances that never reach a predicate do not pay for
    them."""
    distinct = cache(lambda: tuple(sorted(set(hitters()))))
    members = cache(lambda: tuple(tuple(iter_bits(h)) for h in distinct()))

    def feasible(m: int) -> bool:
        for h in distinct():
            if not m & h:
                return False
        return True

    def batch(cols: tuple[int, ...]) -> int:
        ok = -1
        for hitter in members():
            met = 0
            for e in hitter:
                met |= cols[e]
            ok &= met
        return ok

    return feasible, batch


def _packing(conflicts: tuple[int, ...]) -> tuple[Callable, Callable]:
    """Scalar and batch predicates of a packing kind: S is feasible iff no
    member's conflict mask meets S.  Conflicts are symmetric, so the batch
    predicate tests each conflicting pair once, from its lower element."""
    above = cache(lambda: tuple(
        (e, tuple(f for f in iter_bits(c) if f > e)) for e, c in enumerate(conflicts) if c >> e + 1
    ))

    def feasible(m: int) -> bool:
        for e in iter_bits(m):
            if conflicts[e] & m:
                return False
        return True

    def batch(cols: tuple[int, ...]) -> int:
        clash = 0
        for e, partners in above():
            met = 0
            for f in partners:
                met |= cols[f]
            clash |= cols[e] & met
        return ~clash

    return feasible, batch


def _keep_all(e: int) -> int:
    return -1


def _edge_hitters(g: Graph) -> Iterable[int]:
    return ((1 << u) | (1 << v) for u, v in g.edges)


def _two_core(g: Graph, keep: int) -> int:
    """What is left of keep after peeling, in rounds, every vertex with
    fewer than two neighbours left in keep: none iff keep induces a forest."""
    changed = True
    while changed:
        changed = False
        for v in iter_bits(keep):
            nb = g.adj[v] & keep
            if not nb & (nb - 1):
                keep ^= 1 << v
                changed = True
    return keep


def _forest_batch(g: Graph) -> Callable:
    """Batch predicate of feedback vertex set, the bit-sliced twin of
    _two_core: the kept vertices induce a forest iff peeling vertices with
    fewer than two kept neighbours leaves none.  kept[v] holds the positions
    where v is not deleted; a vertex's saturating count of kept neighbours
    (one, two) drops it where two is unset, until a round changes nothing."""
    nbs = tuple(tuple(iter_bits(a)) for a in g.adj)

    def batch(cols: tuple[int, ...]) -> int:
        ones = _chunk_ones(len(cols))
        kept = [c ^ ones for c in cols]
        changed = True
        while changed:
            changed = False
            for v, us in enumerate(nbs):
                k = kept[v]
                if not k:
                    continue
                one = two = 0
                for u in us:
                    two |= one & kept[u]
                    one |= kept[u]
                if k & ~two:
                    kept[v] = k & two
                    changed = True
        left = 0
        for k in kept:
            left |= k
        return ~left

    return batch


def _feedback_vertex_set(g: Graph) -> tuple[Callable, Callable]:
    full = (1 << g.n) - 1
    return lambda m: not _two_core(g, full & ~m), _forest_batch(g)


def _min_independent_dominating_set(g: Graph) -> tuple[Callable, Callable]:
    independent, independent_batch = _packing(g.adj)
    dominating, dominating_batch = _covering(lambda: g.closed_nbs)
    return (
        lambda m: independent(m) and dominating(m),
        lambda ms: independent_batch(ms) & dominating_batch(ms),
    )


def _max_minimal_vertex_cover(g: Graph) -> tuple[Callable, Callable]:
    dual = dualize(make_problem(ProblemKind.MIN_INDEPENDENT_DOMINATING_SET, g))
    return dual.feasible_mask, dual.feasible_batch


# Each kind is entered in exactly one of these three tables.  Covering kinds:
# the hitter masks of an instance, built on the first predicate call.
_HITTERS = {
    ProblemKind.VERTEX_COVER: _edge_hitters,
    ProblemKind.DOMINATING_SET: lambda g: g.closed_nbs,
    ProblemKind.SET_COVER: lambda s: s.holders,
}
# Packing kinds: the conflict mask of each element.
_CONFLICTS = {
    ProblemKind.INDEPENDENT_SET: lambda g: g.adj,
    ProblemKind.CLIQUE: lambda g: g.non_neighbours,
    ProblemKind.SET_PACKING: lambda s: s.conflicts,
}
# The other kinds: (goal, instance -> scalar and batch predicates); they have
# no restriction.
_OTHERS = {
    ProblemKind.FEEDBACK_VERTEX_SET: (Goal.MINIMIZE, _feedback_vertex_set),
    ProblemKind.MAX_MINIMAL_VERTEX_COVER: (Goal.MAXIMIZE, _max_minimal_vertex_cover),
    ProblemKind.MIN_INDEPENDENT_DOMINATING_SET: (Goal.MINIMIZE, _min_independent_dominating_set),
}

# A kind missing from all three tables fails here, at import.
GOALS = {
    kind: Goal.MINIMIZE if kind in _HITTERS
    else Goal.MAXIMIZE if kind in _CONFLICTS
    else _OTHERS[kind][0]
    for kind in ProblemKind
}
RESTRICTABLE = frozenset(_HITTERS) | frozenset(_CONFLICTS)

# The kinds whose instance is a SetSystem; every other kind reads a Graph.
SET_KINDS = frozenset({ProblemKind.SET_COVER, ProblemKind.SET_PACKING})


def make_problem(kind: ProblemKind, data) -> SubsetProblem:
    """Wrap an instance into the uniform subset-problem contract."""
    cls = SetSystem if kind in SET_KINDS else Graph
    if not isinstance(data, cls):
        raise TypeError(f"{kind.value} expects {cls.__name__}, got {type(data).__name__}")
    if kind in _HITTERS:
        # Closed under supersets: choosing an element keeps every other one.
        hitters = _HITTERS[kind]
        feasible, batch = _covering(lambda: hitters(data))
        restrict_fn = _keep_all
    elif kind in _CONFLICTS:
        # Closed under subsets: choosing e drops its conflicts.
        conflicts = _CONFLICTS[kind](data)
        feasible, batch = _packing(conflicts)
        restrict_fn = tuple(~c for c in conflicts).__getitem__
    else:
        feasible, batch = _OTHERS[kind][1](data)
        restrict_fn = None
    if cls is SetSystem:
        label, n = f"{kind.value}(n={data.n_ground},m={data.m})", data.m
    else:
        label, n = f"{kind.value}(n={data.n})", data.n
    return SubsetProblem(
        label=label,
        universe_size=n,
        goal=GOALS[kind],
        feasible_mask=feasible,
        feasible_batch=batch,
        restrict_fn=restrict_fn,
        kind=kind,
        data=data,
    )


def fewest_conflicts(conflicts: tuple[int, ...], alive: int) -> int:
    """The alive element with the fewest alive conflicts, the lowest on ties."""
    best, best_deg = -1, len(conflicts)
    rest = alive
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        deg = (conflicts[v] & alive).bit_count()
        if deg < best_deg:
            best, best_deg = v, deg
    return best


def packing_upper_bound(p: SubsetProblem) -> int:
    """Upper bound on the optimum of p, a packing kind or a sub-instance of
    one: a greedy partition of the alive elements into cliques of the
    conflict graph, each grown from the one with the fewest alive conflicts
    by the lowest one that conflicts with all its members.  A packing holds
    one element of a clique at most.  Other kinds get |alive|."""
    alive = p.alive
    if p.kind not in _CONFLICTS:
        return alive.bit_count()
    conflicts = _CONFLICTS[p.kind](p.data)
    cliques = 0
    while alive:
        e = fewest_conflicts(conflicts, alive)
        common = conflicts[e] & alive
        alive ^= 1 << e
        while common:
            low = common & -common
            alive ^= low
            common &= conflicts[low.bit_length() - 1]
        cliques += 1
    return cliques

