"""Concrete subset-problem encodings over graphs and set systems.

Universe convention: vertices for graph problems, set indices for set-system
problems (the ground set is metadata).  Each encoding supplies a bitmask
feasibility predicate, a vectorized batch predicate where it is cheap, and,
for the kinds the branching engine handles, the restrict_fn(e) mask of
elements compatible with e, from which SubsetProblem.restrict builds the
sub-instance I(e).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Iterable, Optional

import numpy as np

from .core import (
    Goal,
    SubsetProblem,
    iter_bits,
    mask_of,
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


GOALS = {
    ProblemKind.VERTEX_COVER: Goal.MINIMIZE,
    ProblemKind.INDEPENDENT_SET: Goal.MAXIMIZE,
    ProblemKind.CLIQUE: Goal.MAXIMIZE,
    ProblemKind.DOMINATING_SET: Goal.MINIMIZE,
    ProblemKind.SET_COVER: Goal.MINIMIZE,
    ProblemKind.SET_PACKING: Goal.MAXIMIZE,
    ProblemKind.FEEDBACK_VERTEX_SET: Goal.MINIMIZE,
    ProblemKind.MAX_MINIMAL_VERTEX_COVER: Goal.MAXIMIZE,
    ProblemKind.MIN_INDEPENDENT_DOMINATING_SET: Goal.MINIMIZE,
}


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; adjacency as per-vertex neighbor bitmasks."""

    n: int
    edges: frozenset[tuple[int, int]]
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range [0,{n})")
            norm.add((min(u, v), max(u, v)))
        adj = [0] * n
        for u, v in norm:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n=n, edges=frozenset(norm), adj=tuple(adj))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((a.bit_count() for a in self.adj), default=0)

    def closed_nb(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def complement(self) -> "Graph":
        comp = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (u, v) not in self.edges
        ]
        return Graph.from_edges(self.n, comp)

@dataclass(frozen=True)
class SetSystem:
    """m subsets of a ground set {0, ..., n_ground-1}, stored as bitmasks.

    Sets may repeat; indices keep them distinct.
    """

    n_ground: int
    sets: tuple[int, ...]

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


def has_cycle(g: Graph, keep: int) -> bool:
    """Cycle detection on the subgraph induced by the vertex bitmask `keep`
    (iterative DFS with parent-edge tracking)."""
    seen = 0
    for start in iter_bits(keep):
        if (seen >> start) & 1:
            continue
        stack = [(start, -1)]
        seen |= 1 << start
        while stack:
            v, parent = stack.pop()
            skipped_parent = False
            for u in iter_bits(g.adj[v] & keep):
                if u == parent and not skipped_parent:
                    skipped_parent = True
                    continue
                if (seen >> u) & 1:
                    return True
                seen |= 1 << u
                stack.append((u, v))
    return False


def _cover_ok(g: Graph, mask: int) -> bool:
    comp = ((1 << g.n) - 1) & ~mask
    for v in iter_bits(comp):
        if g.adj[v] & comp:
            return False
    return True


def _independent_ok(g: Graph, mask: int) -> bool:
    for v in iter_bits(mask):
        if g.adj[v] & mask:
            return False
    return True


def _minimal_cover_ok(g: Graph, mask: int) -> bool:
    # v is droppable iff every incident edge keeps its other endpoint in S.
    for v in iter_bits(mask):
        if g.adj[v] & ~mask == 0:
            return False
    return True


def _batch_edges_covered(g: Graph, masks: np.ndarray) -> np.ndarray:
    ok = np.ones(masks.shape, dtype=bool)
    for u, v in sorted(g.edges):
        ok &= (((masks >> u) | (masks >> v)) & 1).astype(bool)
    return ok


def _batch_independent(g: Graph, masks: np.ndarray) -> np.ndarray:
    ok = np.ones(masks.shape, dtype=bool)
    for u, v in sorted(g.edges):
        ok &= ~(((masks >> u) & (masks >> v)) & 1).astype(bool)
    return ok


def _dominates(g: Graph, mask: int) -> bool:
    cov = 0
    for v in iter_bits(mask):
        cov |= g.closed_nb(v)
    return cov == (1 << g.n) - 1


def _batch_dominating(g: Graph, masks: np.ndarray) -> np.ndarray:
    cov = np.zeros(masks.shape, dtype=np.int64)
    for v in range(g.n):
        cov |= np.where((masks >> v) & 1 == 1, g.closed_nb(v), 0)
    return cov == (1 << g.n) - 1


def _keep_all(e: int) -> int:
    return -1


def make_problem(kind: ProblemKind, data) -> SubsetProblem:
    """Wrap an instance into the uniform subset-problem contract."""
    builder = _BUILDERS[kind]
    return builder(data)


def _expect(data, cls, kind):
    if not isinstance(data, cls):
        raise TypeError(f"{kind.value} expects {cls.__name__}, got {type(data).__name__}")
    return data


def _graph_problem(kind, g, feas, batch, restrict_fn=None):
    return SubsetProblem(
        label=f"{kind.value}(n={g.n})",
        universe_size=g.n,
        goal=GOALS[kind],
        feasible_mask=feas,
        feasible_batch=batch,
        restrict_fn=restrict_fn,
        kind=kind,
        data=g,
    )


def _build_vertex_cover(data) -> SubsetProblem:
    g = _expect(data, Graph, ProblemKind.VERTEX_COVER)
    return _graph_problem(
        ProblemKind.VERTEX_COVER,
        g,
        lambda m: _cover_ok(g, m),
        lambda ms: _batch_edges_covered(g, ms),
        _keep_all,
    )


def _build_independent_set(data) -> SubsetProblem:
    g = _expect(data, Graph, ProblemKind.INDEPENDENT_SET)
    return _graph_problem(
        ProblemKind.INDEPENDENT_SET,
        g,
        lambda m: _independent_ok(g, m),
        lambda ms: _batch_independent(g, ms),
        lambda v: ~g.closed_nb(v),
    )


def _build_clique(data) -> SubsetProblem:
    g = _expect(data, Graph, ProblemKind.CLIQUE)

    def feas(m: int) -> bool:
        for v in iter_bits(m):
            if m & ~g.closed_nb(v):
                return False
        return True

    def batch(masks: np.ndarray) -> np.ndarray:
        ok = np.ones(masks.shape, dtype=bool)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if (u, v) not in g.edges:
                    ok &= ~(((masks >> u) & (masks >> v)) & 1).astype(bool)
        return ok

    return _graph_problem(ProblemKind.CLIQUE, g, feas, batch, g.adj.__getitem__)


def _build_dominating_set(data) -> SubsetProblem:
    g = _expect(data, Graph, ProblemKind.DOMINATING_SET)
    return _graph_problem(
        ProblemKind.DOMINATING_SET,
        g,
        lambda m: _dominates(g, m),
        lambda ms: _batch_dominating(g, ms),
        _keep_all,
    )


def _build_set_cover(data) -> SubsetProblem:
    sys = _expect(data, SetSystem, ProblemKind.SET_COVER)
    full = (1 << sys.n_ground) - 1

    def feas(m: int) -> bool:
        cov = 0
        for i in iter_bits(m):
            cov |= sys.sets[i]
        return cov == full

    @cache
    def hitters() -> list[int]:
        """The distinct masks of the sets that hold each ground element.
        Built on the first batch call: it costs ground x sets steps, and the
        large problems, which never reach the batch path, would pay it."""
        return sorted(
            {
                mask_of(i for i, s in enumerate(sys.sets) if (s >> x) & 1)
                for x in range(sys.n_ground)
            }
        )

    def batch(masks: np.ndarray) -> np.ndarray:
        ok = np.ones(masks.shape, dtype=bool)
        for h in hitters():
            ok &= (masks & h) != 0
        return ok

    return SubsetProblem(
        label=f"set-cover(n={sys.n_ground},m={sys.m})",
        universe_size=sys.m,
        goal=Goal.MINIMIZE,
        feasible_mask=feas,
        feasible_batch=batch,
        restrict_fn=_keep_all,
        kind=ProblemKind.SET_COVER,
        data=sys,
    )


def _build_set_packing(data) -> SubsetProblem:
    sys = _expect(data, SetSystem, ProblemKind.SET_PACKING)

    def feas(m: int) -> bool:
        acc = 0
        for i in iter_bits(m):
            if sys.sets[i] & acc:
                return False
            acc |= sys.sets[i]
        return True

    conflicts = [
        (i, j)
        for i in range(sys.m)
        for j in range(i + 1, sys.m)
        if sys.sets[i] & sys.sets[j]
    ]

    def batch(masks: np.ndarray) -> np.ndarray:
        ok = np.ones(masks.shape, dtype=bool)
        for i, j in conflicts:
            ok &= ~(((masks >> i) & (masks >> j)) & 1).astype(bool)
        return ok

    def restrict_fn(e: int) -> int:
        return mask_of(i for i, s in enumerate(sys.sets) if not s & sys.sets[e])

    return SubsetProblem(
        label=f"set-packing(n={sys.n_ground},m={sys.m})",
        universe_size=sys.m,
        goal=Goal.MAXIMIZE,
        feasible_mask=feas,
        feasible_batch=batch,
        restrict_fn=restrict_fn,
        kind=ProblemKind.SET_PACKING,
        data=sys,
    )


def _build_feedback_vertex_set(data) -> SubsetProblem:
    g = _expect(data, Graph, ProblemKind.FEEDBACK_VERTEX_SET)
    full = (1 << g.n) - 1

    return _graph_problem(
        ProblemKind.FEEDBACK_VERTEX_SET,
        g,
        lambda m: not has_cycle(g, full & ~m),
        None,
    )


def _build_max_minimal_vertex_cover(data) -> SubsetProblem:
    g = _expect(data, Graph, ProblemKind.MAX_MINIMAL_VERTEX_COVER)

    def batch(masks: np.ndarray) -> np.ndarray:
        ok = _batch_edges_covered(g, masks)
        for v in range(g.n):
            # v droppable <=> v in S and adj[v] subset of S
            droppable = ((masks >> v) & 1 == 1) & ((~masks & np.int64(g.adj[v])) == 0)
            ok &= ~droppable
        return ok

    return _graph_problem(
        ProblemKind.MAX_MINIMAL_VERTEX_COVER,
        g,
        lambda m: _cover_ok(g, m) and _minimal_cover_ok(g, m),
        batch,
    )


def _build_min_independent_dominating_set(data) -> SubsetProblem:
    g = _expect(data, Graph, ProblemKind.MIN_INDEPENDENT_DOMINATING_SET)
    return _graph_problem(
        ProblemKind.MIN_INDEPENDENT_DOMINATING_SET,
        g,
        lambda m: _independent_ok(g, m) and _dominates(g, m),
        lambda ms: _batch_independent(g, ms) & _batch_dominating(g, ms),
    )


_BUILDERS = {
    ProblemKind.VERTEX_COVER: _build_vertex_cover,
    ProblemKind.INDEPENDENT_SET: _build_independent_set,
    ProblemKind.CLIQUE: _build_clique,
    ProblemKind.DOMINATING_SET: _build_dominating_set,
    ProblemKind.SET_COVER: _build_set_cover,
    ProblemKind.SET_PACKING: _build_set_packing,
    ProblemKind.FEEDBACK_VERTEX_SET: _build_feedback_vertex_set,
    ProblemKind.MAX_MINIMAL_VERTEX_COVER: _build_max_minimal_vertex_cover,
    ProblemKind.MIN_INDEPENDENT_DOMINATING_SET: _build_min_independent_dominating_set,
}

RESTRICTABLE = frozenset(
    {
        ProblemKind.VERTEX_COVER,
        ProblemKind.INDEPENDENT_SET,
        ProblemKind.CLIQUE,
        ProblemKind.DOMINATING_SET,
        ProblemKind.SET_COVER,
        ProblemKind.SET_PACKING,
    }
)


def minimality_certificate(g: Graph, cover: Iterable[int]) -> Optional[int]:
    """None if the cover is inclusion-minimal, else the lowest-index vertex
    whose removal keeps it a cover."""
    mask = mask_of(cover)
    if not _cover_ok(g, mask):
        raise ValueError("solution is not a vertex cover")
    for v in sorted(iter_bits(mask)):
        if g.adj[v] & ~mask == 0:
            return v
    return None
