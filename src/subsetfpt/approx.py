"""Polynomial-time approximation oracles with machine-checkable ratios.

Each oracle is a pure function (all ties break to the lowest index) paired
with a ratio computed from the instance as an exact Fraction, so threshold
comparisons downstream never hit floating point.  Minimization ratios are
>= 1, maximization ratios in (0, 1].

One greedy loop serves each core of problems.py: `_greedy_cover` is
greedy-set-cover on the sets and greedy-dominating on the closed
neighbourhoods; `_greedy_packing` is greedy-mis and greedy-ids on the
adjacency masks and greedy-clique on the non-neighbour masks.  The scans of
`_cover_scan` only find the next pick, for that loop and for a ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Optional

from .core import Goal, InfeasibleInstance, SubsetProblem, _sub_instance, is_feasible, iter_bits
from .problems import GOALS, ProblemKind, covering_lower_bound, fewest_conflicts


@cache
def harmonic(d: int) -> Fraction:
    """H_d = 1 + 1/2 + ... + 1/d (H_0 = 0)."""
    return sum((Fraction(1, i) for i in range(1, d + 1)), Fraction(0))


if TYPE_CHECKING:  # bounded(root, alive, chosen, room), see ApproxOracle; not built at import
    Bounded = Callable[[SubsetProblem, int, int, Optional[int]], Optional[Collection[int]]]


@dataclass(frozen=True)
class ApproxOracle:
    """A named polynomial-time algorithm together with its declared ratio.

    run/ratio take a SubsetProblem, root or sub-instance.  run returns a sized
    collection of distinct ids: the branching engine reads only its len()
    and sorted(), and run_checked makes a frozenset of it for every other
    engine.  The built-in oracles return their greedy's list of picks.  The
    ratio is proven for kind, so no other kind is accepted; None, for an
    oracle a caller builds, checks the goal alone.

    bounded(root, alive, chosen, room) is the one call the branching engine
    makes per node: run on the sub-instance of root with masks alive and
    chosen, or None only where it has no solution of size <= room
    (minimization) or >= room (maximization); room None asks for the whole
    output.  The built-in oracles declare it: a minimization greedy stops
    once it has more than ratio * room picks, as then the optimum exceeds
    room, and a maximization greedy runs to the end, as no output size rules
    out a solution.  The three covering oracles also answer None where a
    certified lower bound on the sub-instance's optimum is above room:
    greedy-set-cover and greedy-dominating by problems.covering_lower_bound
    (pairwise-disjoint unmet hitters), matching-vc by its matching and the
    short augmenting paths of one pass over it.  An oracle built from run
    and ratio alone gets bounded derived from them (see bounded_call), with
    the ratio cut alone.  Since a declared bounded does not call run or
    ratio, dataclasses.replace of run or ratio alone keeps the declared
    bounded, and the engine does not see them.
    """

    name: str
    goal: Goal
    kind: Optional[ProblemKind] = field(default=None, kw_only=True)
    run: Callable[[SubsetProblem], Collection[int]]
    ratio: Callable[[SubsetProblem], Fraction]
    bounded: Optional[Bounded] = field(default=None, kw_only=True)

    def check_goal(self, p: SubsetProblem) -> None:
        """Refuse a problem of the other goal, or of a kind not the oracle's."""
        if self.goal is not p.goal:
            raise ValueError("oracle goal must match the problem's goal")
        if self.kind is not None and p.kind is not self.kind:
            raise ValueError(f"oracle {self.name} is for {self.kind.value} only")

    def bounded_call(self) -> Bounded:
        """bounded, or else the same contract from run, called on the
        sub-instance of root with the given masks, built as restrict builds
        one, and under minimization from ratio, called on it too."""
        return self.bounded or partial(_bounded_by, self.run, self.ratio)


def _bounded_by(run, ratio, root: SubsetProblem, alive: int, chosen: int, room: Optional[int]):
    sub = _sub_instance(root, alive, chosen)
    sol = run(sub)
    if room is None or root.goal is Goal.MAXIMIZE:
        return sol
    r = ratio(sub)
    return None if len(sol) * r.denominator > r.numerator * room else sol


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
# never picked again.  The others take `alive`, the selectable elements.
# Given the bound of ApproxOracle.bounded, a minimization greedy returns None
# instead of a pick beyond it, and a covering one also where its lower bound
# is above the room; without one, and under maximization, it runs to the end.


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


def _lazy_scan(covers: tuple[int, ...], target: int) -> Iterator[tuple[int, int]]:
    """(id, gain) of each pick in order, by a lazy scan (Minoux's accelerated
    greedy): bound[i] is id i's gain when last computed, and target only
    loses bits, so an id whose bound is no more than the best gain of the
    pass so far cannot beat it and is skipped.  At most it ties a lower id,
    so the picks are those of a full rescan, lowest id on ties.  It ends
    once target is covered, or after (-1, 0) if what is left is in no cover."""
    bound = [target.bit_count()] * len(covers)
    while target:
        best, best_gain = -1, 0
        for i in range(len(covers)):
            if bound[i] > best_gain:
                gain = bound[i] = (covers[i] & target).bit_count()
                if gain > best_gain:
                    best, best_gain = i, gain
        yield best, best_gain
        if best < 0:
            return
        target &= ~covers[best]


def _counter_scan(covers: tuple[int, ...], holders: tuple[int, ...], target: int) -> Iterator[tuple[int, int]]:
    """What _lazy_scan yields, from the gain counters."""
    planes = _gain_planes(holders, target)
    while target:
        best, gain = _top_gain(planes)
        i = (best & -best).bit_length() - 1
        yield i, gain
        if not gain:
            return
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


def _cover_scan(covers: tuple[int, ...], holders: tuple[int, ...], chosen: int) -> Iterator[tuple[int, int]]:
    """The covering greedy's (id, gain) picks on what the chosen ids leave
    uncovered, the largest gain first: by the counters on a wide system,
    else by the lazy scan, which pick what a full rescan would."""
    target = _residual(covers, len(holders), chosen)
    wide = _is_wide(len(covers), len(holders))
    return _counter_scan(covers, holders, target) if wide else _lazy_scan(covers, target)


def _greedy_cover(covers: tuple[int, ...], holders: tuple[int, ...], chosen: int,
                  room: Optional[int] = None, d: Optional[int] = None,
                  by_size: tuple[int, ...] = ()) -> Optional[list[int]]:
    """The covering core's greedy: take the id whose cover mask holds the most
    uncovered ground elements (lowest id on ties), repeat.  holders is the
    transpose of covers: for each ground element, the ids covering it.
    Given a room, it returns None, before any scan, where
    covering_lower_bound over by_size, the holders in problems.by_size's
    order, is above room, and else once it has more than H_d * room picks, d
    being the first pick's gain, the largest, unless passed.  An instance
    with a ground element in no cover raises InfeasibleInstance even then,
    as a run to the end does.  run passes no room, so an oracle built from
    run and ratio alone keeps the ratio cut alone."""
    if room is not None and covering_lower_bound(by_size, chosen, room) > room:
        if not by_size[0]:  # an empty hitter sorts first
            raise InfeasibleInstance("ground set not coverable")
        return None
    picked, limit = [], None
    for i, gain in _cover_scan(covers, holders, chosen):
        if room is not None and not picked:
            r = harmonic(d or gain)
            limit = room * r.numerator // r.denominator
        if not gain or len(picked) == limit and 0 in holders:
            raise InfeasibleInstance("ground set not coverable")
        if len(picked) == limit:
            return None
        picked.append(i)
    return picked


def _greedy_packing(conflicts: tuple[int, ...], alive: int, limit: Optional[int] = None) -> Optional[list[int]]:
    """The packing core's greedy: take the alive element with the fewest alive
    conflicts (lowest id on ties), drop it and its conflicts, repeat."""
    picked = []
    while alive:
        if len(picked) == limit:
            return None
        best = fewest_conflicts(conflicts, alive)
        picked.append(best)
        alive &= ~(conflicts[best] | (1 << best))
    return picked


def _matching_cover(adj: tuple[int, ...], alive: int, room: Optional[int] = None) -> Optional[list[int]]:
    """Both endpoints of a lexicographically-greedy maximal matching M.
    Every vertex cover holds an endpoint of each edge of a matching, so
    given a room it returns None once |M| > room, and, with M complete,
    where |M| plus the augmenting paths that _short_augmenting_paths finds
    is above room: augmenting along all of them gives a matching that
    large.  Those are at most |M|, so the pass runs only where 2|M| > room.
    run passes no room, so an oracle built from run and ratio alone keeps
    the ratio cut alone.  The output is M's endpoints either way."""
    rest = alive  # free vertices not yet passed
    lone = 0  # passed vertices left unmatched
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
            if room is not None and len(cover) > 2 * room:
                return None
        else:
            lone |= low
    if room is not None and len(cover) > room:
        if len(cover) // 2 + _short_augmenting_paths(adj, lone, cover) > room:
            return None
    return cover


def _short_augmenting_paths(adj: tuple[int, ...], free: int, cover: list[int]) -> int:
    """The number of vertex-disjoint augmenting paths u-a=b-v of length 3
    that one pass over the matched pairs (a, b) of cover finds, in pick
    order: u and v are distinct vertices of free, the alive vertices left
    unmatched, that no path found before holds; u is a's lowest such
    neighbour that b lacks, else its lowest, and v b's lowest other one."""
    paths = 0
    for i in range(0, len(cover), 2):
        at_a = adj[cover[i]] & free
        if at_a:
            at_b = adj[cover[i + 1]] & free
            u = at_a & ~at_b or at_a
            u &= -u
            at_b &= ~u
            if at_b:
                free ^= u | at_b & -at_b  # u and b's lowest other neighbour
                paths += 1
    return paths


def _max_degree(adj: tuple[int, ...], alive: int) -> int:
    """Maximum degree of the subgraph induced by the alive vertices."""
    return max(((adj[v] & alive).bit_count() for v in iter_bits(alive)), default=0)


_TWO = Fraction(2)


def _builtin(name: str, kind: ProblemKind, ratio: Callable, bounded: Callable) -> ApproxOracle:
    """A built-in oracle: run(p) is bounded on p's own masks with no room,
    since bounded reads only the data of its root, which p holds too."""
    return ApproxOracle(name, GOALS[kind], kind=kind, ratio=ratio, bounded=bounded,
                        run=lambda p: bounded(p, p.alive, p.chosen, None))


# A maximal independent set is also an independent dominating set, so
# greedy-ids is greedy-mis.  It has at most n vertices, and any independent
# dominating set has at least n / (max degree + 1), since each vertex
# dominates at most that many.
ORACLES = {o.name: o for o in (
    _builtin("matching-vc", ProblemKind.VERTEX_COVER, lambda p: _TWO,
             lambda root, alive, chosen, room: _matching_cover(root.data.adj, alive, room)),
    _builtin("greedy-set-cover", ProblemKind.SET_COVER,
             lambda p: harmonic(max(next(_cover_scan(p.data.sets, p.data.holders, p.chosen), (0, 0))[1], 1)),
             lambda root, alive, chosen, room: _greedy_cover(
                 root.data.sets, root.data.holders, chosen, room, by_size=root.data.holders_by_size)),
    _builtin("greedy-dominating", ProblemKind.DOMINATING_SET, lambda p: harmonic(p.data.max_degree + 1),
             lambda root, alive, chosen, room: _greedy_cover(
                 root.data.closed_nbs, root.data.closed_nbs, chosen, room, root.data.max_degree + 1,
                 root.data.closed_nbs_by_size)),
    _builtin("greedy-mis", ProblemKind.INDEPENDENT_SET,
             lambda p: Fraction(1, _max_degree(p.data.adj, p.alive) + 1),
             lambda root, alive, chosen, room: _greedy_packing(root.data.adj, alive)),
    _builtin("greedy-ids", ProblemKind.MIN_INDEPENDENT_DOMINATING_SET,
             lambda p: Fraction(_max_degree(p.data.adj, p.alive) + 1),
             lambda root, alive, chosen, room: _greedy_packing(
                 root.data.adj, alive, None if room is None else room * (_max_degree(root.data.adj, alive) + 1))),
    _builtin("greedy-clique", ProblemKind.CLIQUE, lambda p: Fraction(1, max(p.alive.bit_count(), 1)),
             lambda root, alive, chosen, room: _greedy_packing(root.data.non_neighbours, alive)),
)}

DEFAULT_ORACLE = {o.kind: o for o in ORACLES.values()}
