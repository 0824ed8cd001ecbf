"""Polynomial-time approximation oracles with machine-checkable ratios.

Each oracle is a pure function (all ties break to the lowest index) paired
with a ratio computed from the instance as an exact Fraction, so threshold
comparisons downstream never hit floating point.  Minimization ratios are
>= 1, maximization ratios in (0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable

from .core import Goal, InfeasibleInstance, SubsetProblem, iter_bits
from .problems import Graph, ProblemKind, SetSystem


@cache
def harmonic(d: int) -> Fraction:
    """H_d = 1 + 1/2 + ... + 1/d (H_0 = 0)."""
    return sum((Fraction(1, i) for i in range(1, d + 1)), Fraction(0))


@dataclass(frozen=True)
class ApproxOracle:
    """A named polynomial-time algorithm together with its declared ratio.

    run/ratio take the wrapped SubsetProblem so the branching engine can
    re-invoke the oracle on sub-instances.
    """

    name: str
    goal: Goal
    run: Callable[[SubsetProblem], frozenset[int]]
    ratio: Callable[[SubsetProblem], Fraction]


def _greedy_cover(covers: list[tuple[int, int]], target: int) -> frozenset[int]:
    """Greedy max-coverage loop shared by set cover and dominating set:
    covers holds (id, mask) pairs in id order; ties go to the lowest id."""
    chosen: list[int] = []
    covered = 0
    while covered & target != target:
        best, best_cover, best_gain = -1, 0, 0
        for i, s in covers:
            gain = (s & target & ~covered).bit_count()
            if gain > best_gain:
                best, best_cover, best_gain = i, s, gain
        if best < 0:
            raise InfeasibleInstance("ground set not coverable")
        chosen.append(best)
        covered |= best_cover
    return frozenset(chosen)


# The greedy algorithms below also run on a sub-instance and return root ids.
# The covering ones take `chosen`, the elements picked so far, and cover
# what those leave uncovered; a chosen element covers nothing new, so it is
# never picked again.  The others take `alive`, the selectable elements
# (-1 for all).


def _uncovered(sets: Iterable[int], full: int) -> int:
    for s in sets:
        full &= ~s
    return full


def greedy_set_cover(sys: SetSystem, chosen: int = 0) -> frozenset[int]:
    target = _uncovered((sys.sets[i] for i in iter_bits(chosen)), (1 << sys.n_ground) - 1)
    return _greedy_cover(list(enumerate(sys.sets)), target)


def greedy_dominating_set(g: Graph, chosen: int = 0) -> frozenset[int]:
    target = _uncovered((g.closed_nb(v) for v in iter_bits(chosen)), (1 << g.n) - 1)
    return _greedy_cover([(v, g.closed_nb(v)) for v in range(g.n)], target)


def matching_vertex_cover(g: Graph, alive: int = -1) -> frozenset[int]:
    """Both endpoints of a lexicographically-greedy maximal matching."""
    rest = alive & ((1 << g.n) - 1)  # free vertices not yet passed
    cover = []
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        # the lowest-index free neighbour above u, as a sorted edge scan finds
        free = g.adj[u] & rest
        if free:
            nb = free & -free
            rest ^= nb
            cover += (u, nb.bit_length() - 1)
    return frozenset(cover)


def greedy_maximal_independent_set(g: Graph, alive: int = -1) -> frozenset[int]:
    """Repeatedly take the minimum-degree remaining vertex and delete its
    closed neighborhood; the result is maximal independent, hence also an
    independent dominating set."""
    alive &= (1 << g.n) - 1
    picked = []
    while alive:
        best, best_deg = -1, g.n + 1
        for v in iter_bits(alive):
            deg = (g.adj[v] & alive).bit_count()
            if deg < best_deg:
                best, best_deg = v, deg
        picked.append(best)
        alive &= ~g.closed_nb(best)
    return frozenset(picked)


def greedy_clique(g: Graph, alive: int = -1) -> frozenset[int]:
    """Grow a clique, always adding the candidate with the most neighbors
    among the remaining candidates."""
    cand = alive & ((1 << g.n) - 1)
    clique = 0
    while cand:
        best, best_deg = -1, -1
        for v in iter_bits(cand):
            deg = (g.adj[v] & cand).bit_count()
            if deg > best_deg:
                best, best_deg = v, deg
        clique |= 1 << best
        cand &= g.adj[best]
    return frozenset(iter_bits(clique))


def _graph_of(p: SubsetProblem) -> Graph:
    if not isinstance(p.data, Graph):
        raise TypeError(f"oracle needs a graph instance, got {type(p.data).__name__}")
    return p.data


def _sys_of(p: SubsetProblem) -> SetSystem:
    if not isinstance(p.data, SetSystem):
        raise TypeError(f"oracle needs a set system, got {type(p.data).__name__}")
    return p.data


def _max_degree(p: SubsetProblem) -> int:
    """Maximum degree of the subgraph induced by the selectable vertices."""
    g = _graph_of(p)
    return max(((g.adj[v] & p.alive).bit_count() for v in iter_bits(p.alive)), default=0)


def _max_residual_size(p: SubsetProblem) -> int:
    """Largest number of ground elements one set adds to the chosen sets."""
    sys = _sys_of(p)
    target = _uncovered((sys.sets[i] for i in iter_bits(p.chosen)), (1 << sys.n_ground) - 1)
    return max(((s & target).bit_count() for s in sys.sets), default=0)


_TWO = Fraction(2)

MATCHING_VC = ApproxOracle(
    name="matching-vc",
    goal=Goal.MINIMIZE,
    run=lambda p: matching_vertex_cover(_graph_of(p), p.alive),
    ratio=lambda p: _TWO,
)

GREEDY_SET_COVER = ApproxOracle(
    name="greedy-set-cover",
    goal=Goal.MINIMIZE,
    run=lambda p: greedy_set_cover(_sys_of(p), p.chosen),
    ratio=lambda p: harmonic(max(_max_residual_size(p), 1)),
)

GREEDY_DOMINATING = ApproxOracle(
    name="greedy-dominating",
    goal=Goal.MINIMIZE,
    run=lambda p: greedy_dominating_set(_graph_of(p), p.chosen),
    ratio=lambda p: harmonic(_graph_of(p).max_degree() + 1),
)

GREEDY_MIS = ApproxOracle(
    name="greedy-mis",
    goal=Goal.MAXIMIZE,
    run=lambda p: greedy_maximal_independent_set(_graph_of(p), p.alive),
    ratio=lambda p: Fraction(1, _max_degree(p) + 1),
)

# A maximal independent set is also an independent dominating set.  It has
# at most n vertices, and any independent dominating set has at least
# n / (max degree + 1), since each vertex dominates at most that many.
GREEDY_IDS = ApproxOracle(
    name="greedy-ids",
    goal=Goal.MINIMIZE,
    run=GREEDY_MIS.run,
    ratio=lambda p: Fraction(_max_degree(p) + 1),
)

GREEDY_CLIQUE = ApproxOracle(
    name="greedy-clique",
    goal=Goal.MAXIMIZE,
    run=lambda p: greedy_clique(_graph_of(p), p.alive),
    ratio=lambda p: Fraction(1, max(p.alive.bit_count(), 1)),
)

ORACLES = {
    o.name: o
    for o in (
        MATCHING_VC,
        GREEDY_SET_COVER,
        GREEDY_DOMINATING,
        GREEDY_MIS,
        GREEDY_IDS,
        GREEDY_CLIQUE,
    )
}

DEFAULT_ORACLE = {
    ProblemKind.VERTEX_COVER: MATCHING_VC,
    ProblemKind.SET_COVER: GREEDY_SET_COVER,
    ProblemKind.DOMINATING_SET: GREEDY_DOMINATING,
    ProblemKind.INDEPENDENT_SET: GREEDY_MIS,
    ProblemKind.MIN_INDEPENDENT_DOMINATING_SET: GREEDY_IDS,
    ProblemKind.CLIQUE: GREEDY_CLIQUE,
}
