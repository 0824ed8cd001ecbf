"""Polynomial-time approximation oracles with machine-checkable ratios.

Each oracle is a pure function (all ties break to the lowest index) paired
with a ratio computed from the instance as an exact Fraction, so threshold
comparisons downstream never hit floating point.  Minimization ratios are
>= 1, maximization ratios in (0, 1].

One greedy loop serves each core of problems.py: `_greedy_cover` is
greedy-set-cover on the sets and greedy-dominating on the closed
neighbourhoods; `_greedy_packing` is greedy-mis and greedy-ids on the
adjacency masks and greedy-clique on the non-neighbour masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Collection, Optional

from .core import Goal, InfeasibleInstance, SubsetProblem, is_feasible, iter_bits
from .problems import Graph, ProblemKind, SetSystem, fewest_conflicts


@cache
def harmonic(d: int) -> Fraction:
    """H_d = 1 + 1/2 + ... + 1/d (H_0 = 0)."""
    return sum((Fraction(1, i) for i in range(1, d + 1)), Fraction(0))


@dataclass(frozen=True)
class ApproxOracle:
    """A named polynomial-time algorithm together with its declared ratio.

    run/ratio take the wrapped SubsetProblem so the branching engine can
    re-invoke the oracle on sub-instances.  run returns a sized collection
    of distinct ids: the engine reads only its len() and sorted(), and
    run_checked makes a frozenset of it for every other engine.  The built-in
    oracles return their greedy's list of picks.  The ratio is proven for
    kind, so no other kind is accepted; None, for an oracle a caller builds,
    checks the goal alone.
    """

    name: str
    goal: Goal
    kind: Optional[ProblemKind] = field(default=None, kw_only=True)
    run: Callable[[SubsetProblem], Collection[int]]
    ratio: Callable[[SubsetProblem], Fraction]

    def check_goal(self, p: SubsetProblem) -> None:
        """Refuse a problem of the other goal, or of a kind not the oracle's."""
        if self.goal is not p.goal:
            raise ValueError("oracle goal must match the problem's goal")
        if self.kind is not None and p.kind is not self.kind:
            raise ValueError(f"oracle {self.name} is for {self.kind.value} only")


class InfeasibleOutput(ValueError):
    """An oracle returned a set that is not feasible for the problem it ran on."""


def run_checked(oracle: ApproxOracle, p: SubsetProblem) -> frozenset[int]:
    """oracle.run(p), refused as by check_goal, which every engine shares, or
    for an output infeasible for p, as a caller's oracle may return."""
    oracle.check_goal(p)
    sol = frozenset(oracle.run(p))
    if not is_feasible(p, sol):
        raise InfeasibleOutput(f"oracle {oracle.name} returned a set infeasible for {p.label}")
    return sol


# The greedy algorithms below also run on a sub-instance and return root ids.
# The covering ones take `chosen`, the elements picked so far, and cover
# what those leave uncovered; a chosen element covers nothing new, so it is
# never picked again.  The others take `alive`, the selectable elements
# (-1 for all).


def _residual(covers: tuple[int, ...], n_ground: int, chosen: int) -> int:
    """The ground elements that the covers of the chosen ids leave uncovered."""
    target = (1 << n_ground) - 1
    while chosen:
        low = chosen & -chosen
        chosen ^= low
        target &= ~covers[low.bit_length() - 1]
    return target


# The covering greedy has two inner scans with the same picks.  The lazy
# scan costs one pass over the m ids per pick but recounts only the gains
# that could still win; the gain counters cost O(ground * log max gain)
# big-int operations in all.  The counters take the systems with at least
# WIDE ids per ground element (set cover with many small sets).  Timed
# against the lazy scan on random covering systems, ground 16-80, sets of up
# to 8 or ground/5 elements, the counters broke even at 2-4 ids per element
# for ground >= 48, at 3-6 for ground 24-32 and at 4-8 for ground 16; at 4
# they took 0.6-1.06x the scan's time, except 1.1-1.25x on ground 24 and
# 1.6-1.9x on ground 16 with sets of up to 8.  On square systems, N[v] among
# them, they took 1.5-3.0x; on 30-40 elements with 300-2,000 sets of up to
# 8, 0.17x.
WIDE = 4


def _is_wide(m: int, n_ground: int) -> bool:
    return m >= WIDE * n_ground


def _gain_planes(holders: tuple[int, ...], target: int) -> list[int]:
    """Bit-sliced gain counters over the ids: bit i of plane b is bit b of
    |covers[i] & target|.  Adds holders[x], the ids covering x, for each x in
    target with a ripple carry."""
    planes = [0] * target.bit_count().bit_length()
    for x in iter_bits(target):
        carry, b = holders[x], 0
        while carry:
            plane = planes[b]
            planes[b] = plane ^ carry
            carry &= plane
            b += 1
    return planes


def _top_gain(planes: list[int]) -> tuple[int, int]:
    """(mask of the ids with the largest gain, that gain); (0, 0) when every
    gain is 0.  Walks the planes from the top down, keeping the candidates
    with a 1 wherever some candidate has one."""
    best, gain = -1, 0
    for b in reversed(range(len(planes))):
        if best & planes[b]:
            best &= planes[b]
            gain |= 1 << b
    return (best if gain else 0), gain


def _scan_picks(covers: tuple[int, ...], target: int) -> list[int]:
    """The picks in order, by a lazy scan (Minoux's accelerated greedy):
    bound[i] is id i's gain when last computed, and target only loses bits,
    so an id whose bound is no more than the best gain of the pass so far
    cannot beat it and is skipped.  At most it ties a lower id, so the picks
    are those of a full rescan, lowest id on ties."""
    bound = [target.bit_count()] * len(covers)
    picked = []
    while target:
        best, best_gain = -1, 0
        for i in range(len(covers)):
            if bound[i] > best_gain:
                gain = bound[i] = (covers[i] & target).bit_count()
                if gain > best_gain:
                    best, best_gain = i, gain
        if best < 0:
            raise InfeasibleInstance("ground set not coverable")
        picked.append(best)
        target &= ~covers[best]
    return picked


def _counter_picks(covers: tuple[int, ...], holders: tuple[int, ...], target: int) -> list[int]:
    planes = _gain_planes(holders, target)
    picked = []
    while target:
        best = _top_gain(planes)[0]
        if not best:
            raise InfeasibleInstance("ground set not coverable")
        i = (best & -best).bit_length() - 1
        picked.append(i)
        # Each newly covered x takes 1 off the gain of every id holding it;
        # those gains count x, so the borrow stops within the planes.
        for x in iter_bits(covers[i] & target):
            borrow, b = holders[x], 0
            while borrow:
                plane = planes[b]
                planes[b] = plane ^ borrow
                borrow &= ~plane
                b += 1
        target &= ~covers[i]
    return picked


def _greedy_cover(covers: tuple[int, ...], holders: tuple[int, ...], chosen: int) -> list[int]:
    """The covering core's greedy: take the id whose cover mask holds the most
    uncovered ground elements (lowest id on ties), repeat.  holders is the
    transpose of covers: for each ground element, the ids covering it.  A
    wide system takes the gain counters, any other the lazy scan; both pick
    what a full rescan of every gain on every pick would, in pick order."""
    target = _residual(covers, len(holders), chosen)
    if _is_wide(len(covers), len(holders)):
        return _counter_picks(covers, holders, target)
    return _scan_picks(covers, target)


def _greedy_packing(conflicts: tuple[int, ...], alive: int) -> list[int]:
    """The packing core's greedy: take the alive element with the fewest alive
    conflicts (lowest id on ties), drop it and its conflicts, repeat."""
    alive &= (1 << len(conflicts)) - 1
    picked = []
    while alive:
        best = fewest_conflicts(conflicts, alive)
        picked.append(best)
        alive &= ~(conflicts[best] | (1 << best))
    return picked


def _matching_cover(adj: tuple[int, ...], alive: int) -> list[int]:
    """Both endpoints of a lexicographically-greedy maximal matching."""
    rest = alive & ((1 << len(adj)) - 1)  # free vertices not yet passed
    cover = []
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        # the lowest-index free neighbour above u, as a sorted edge scan finds
        free = adj[u] & rest
        if free:
            nb = free & -free
            rest ^= nb
            cover += (u, nb.bit_length() - 1)
    return cover


def greedy_set_cover(sys: SetSystem, chosen: int = 0) -> frozenset[int]:
    return frozenset(_greedy_cover(sys.sets, sys.holders, chosen))


def greedy_dominating_set(g: Graph, chosen: int = 0) -> frozenset[int]:
    # N[v] is symmetric, so closed_nbs is its own transpose.
    return frozenset(_greedy_cover(g.closed_nbs, g.closed_nbs, chosen))


def matching_vertex_cover(g: Graph, alive: int = -1) -> frozenset[int]:
    """Both endpoints of a lexicographically-greedy maximal matching."""
    return frozenset(_matching_cover(g.adj, alive))


def greedy_maximal_independent_set(g: Graph, alive: int = -1) -> frozenset[int]:
    """A maximal independent set, hence also an independent dominating set."""
    return frozenset(_greedy_packing(g.adj, alive))


def greedy_clique(g: Graph, alive: int = -1) -> frozenset[int]:
    """Grow a clique by the candidate with the most candidate neighbours."""
    return frozenset(_greedy_packing(g.non_neighbours, alive))


def _max_degree(p: SubsetProblem) -> int:
    """Maximum degree of the subgraph induced by the selectable vertices."""
    adj = p.data.adj
    return max(((adj[v] & p.alive).bit_count() for v in iter_bits(p.alive)), default=0)


def _max_residual_size(p: SubsetProblem) -> int:
    """Largest number of ground elements one set adds to the chosen sets."""
    sys = p.data
    target = _residual(sys.sets, sys.n_ground, p.chosen)
    if _is_wide(sys.m, sys.n_ground):
        return _top_gain(_gain_planes(sys.holders, target))[1]
    return max(((s & target).bit_count() for s in sys.sets), default=0)


_TWO = Fraction(2)

MATCHING_VC = ApproxOracle(
    name="matching-vc",
    goal=Goal.MINIMIZE,
    kind=ProblemKind.VERTEX_COVER,
    run=lambda p: _matching_cover(p.data.adj, p.alive),
    ratio=lambda p: _TWO,
)

GREEDY_SET_COVER = ApproxOracle(
    name="greedy-set-cover",
    goal=Goal.MINIMIZE,
    kind=ProblemKind.SET_COVER,
    run=lambda p: _greedy_cover(p.data.sets, p.data.holders, p.chosen),
    ratio=lambda p: harmonic(max(_max_residual_size(p), 1)),
)

GREEDY_DOMINATING = ApproxOracle(
    name="greedy-dominating",
    goal=Goal.MINIMIZE,
    kind=ProblemKind.DOMINATING_SET,
    run=lambda p: _greedy_cover(p.data.closed_nbs, p.data.closed_nbs, p.chosen),
    ratio=lambda p: harmonic(p.data.max_degree + 1),
)

GREEDY_MIS = ApproxOracle(
    name="greedy-mis",
    goal=Goal.MAXIMIZE,
    kind=ProblemKind.INDEPENDENT_SET,
    run=lambda p: _greedy_packing(p.data.adj, p.alive),
    ratio=lambda p: Fraction(1, _max_degree(p) + 1),
)

# A maximal independent set is also an independent dominating set.  It has
# at most n vertices, and any independent dominating set has at least
# n / (max degree + 1), since each vertex dominates at most that many.
GREEDY_IDS = ApproxOracle(
    name="greedy-ids",
    goal=Goal.MINIMIZE,
    kind=ProblemKind.MIN_INDEPENDENT_DOMINATING_SET,
    run=GREEDY_MIS.run,
    ratio=lambda p: Fraction(_max_degree(p) + 1),
)

GREEDY_CLIQUE = ApproxOracle(
    name="greedy-clique",
    goal=Goal.MAXIMIZE,
    kind=ProblemKind.CLIQUE,
    run=lambda p: _greedy_packing(p.data.non_neighbours, p.alive),
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

DEFAULT_ORACLE = {o.kind: o for o in ORACLES.values()}
