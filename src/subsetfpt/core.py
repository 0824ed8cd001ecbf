"""Problem-agnostic foundations for subset problems.

A subset problem selects a subset of a universe {0, ..., n-1}; the value of a
feasible subset is its cardinality.  Subsets are carried around as frozensets
of element indices at the API surface and as integer bitmasks internally, so
exhaustive enumeration is an integer counter.

Exhaustive oracles here are the ground truth everything else is tested
against: they enumerate subsets in a fixed order (by cardinality, then
lexicographic on the sorted member tuple) so ties break deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from bisect import bisect_left
from functools import cache, lru_cache, partial, reduce
from itertools import accumulate
from operator import attrgetter, or_
from typing import Callable, Iterable, Iterator, Optional

DEFAULT_BUDGET = 20

# Brute force tests 2^_CHUNK_BITS masks per feasible_batch call, so each
# column is an int of at most 2^20 bits (128 KiB).
_CHUNK_BITS = 20


class UnsupportedRestriction(ValueError):
    """Raised when a problem kind has no sub-instance operator."""

    def __init__(self, p: "SubsetProblem"):
        super().__init__(f"{p.label} has no restriction operator")


class InfeasibleInstance(Exception):
    """Raised when the instance admits no feasible solution."""


class Goal(Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"

    def flipped(self) -> "Goal":
        return Goal.MAXIMIZE if self is Goal.MINIMIZE else Goal.MINIMIZE


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for i in members:
        m |= 1 << i
    return m


def members_of(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sub_feasible(root_feasible, alive: int, chosen: int, mask: int) -> bool:
    return not mask & ~alive and root_feasible(mask | chosen)


def _sub_batch(root_batch, alive: int, chosen: int, cols: tuple[int, ...]) -> int:
    """_sub_feasible over bit columns: the chosen columns are all ones, and
    a position holding any element outside alive is infeasible."""
    ones = _chunk_ones(len(cols))
    outside = 0
    for e in iter_bits(~alive & ((1 << len(cols)) - 1)):
        outside |= cols[e]
    fixed = tuple(ones if chosen >> e & 1 else c for e, c in enumerate(cols))
    return root_batch(fixed) & ~outside


@dataclass(frozen=True)
class SubsetProblem:
    """Uniform contract for problems whose solutions are subsets of a universe.

    feasible_mask takes an integer bitmask over [0, universe_size).
    feasible_batch, a required field, is the same predicate on a chunk of
    masks at once, bit-sliced; brute force scans with it alone, and
    restrict and dualize derive the one of a sub-instance or a dual from it.
    It takes `cols`, a tuple of universe_size ints over
    2^min(universe_size, 20) positions, where bit s of cols[e] is set iff the
    mask at position s holds e, and returns an int whose bit s says whether
    that mask is feasible.  Bits at or above the chunk width are don't-care
    on both sides.

    This is a root instance: `alive`, the elements still selectable, is the
    whole universe and `chosen`, the elements already picked, is empty.
    Both are derived, never passed, since nothing could tie passed masks to
    the predicates.  On the kinds that have a sub-instance operator,
    restrict_fn(e) is the mask of elements that can still join a solution
    holding e, and restrict(e) returns a SubInstance; other kinds leave
    restrict_fn as None.  Every function of the package that takes a
    SubsetProblem takes a SubInstance too.
    """

    label: str
    universe_size: int
    goal: Goal
    feasible_mask: Callable[[int], bool]
    feasible_batch: Callable[[tuple[int, ...]], int]
    restrict_fn: Optional[Callable[[int], int]] = None
    kind: object = None
    data: object = None
    alive: int = field(init=False)
    chosen: int = field(init=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "alive", (1 << self.universe_size) - 1)

    def restrict(self, e: int) -> "SubInstance":
        """I(e): the sub-instance whose solutions S' are exactly those with
        S' + {e} feasible here."""
        if self.restrict_fn is None:
            raise UnsupportedRestriction(self)
        return _child(self, self.alive, 0, e)


class SubInstance:
    """A read-only view of a sub-instance: its root SubsetProblem plus two
    masks in root numbering, `alive`, the elements still selectable, and
    `chosen`, the elements already picked.  Its feasible sets are the S
    within alive for which S | chosen is feasible at the root.

    label, universe_size, goal and kind are read through root.  data and
    restrict_fn are the root's, held in slots of their own because a search
    node's oracle and restrict read them.  feasible_mask and feasible_batch
    are built from the root's on first read and then kept, so a search node
    that only feeds the oracle builds neither.  restrict fills the slots,
    the two predicates fill their own on first read, and nothing else may
    write them; a frozen __setattr__ is left out because its stores would
    cost what the slots save.
    """

    __slots__ = ("root", "data", "restrict_fn", "alive", "chosen", "_feasible_mask", "_feasible_batch")

    label = property(attrgetter("root.label"))
    universe_size = property(attrgetter("root.universe_size"))
    goal = property(attrgetter("root.goal"))
    kind = property(attrgetter("root.kind"))

    @property
    def feasible_mask(self) -> Callable[[int], bool]:
        try:
            return self._feasible_mask
        except AttributeError:
            pred = self._feasible_mask = partial(
                _sub_feasible, self.root.feasible_mask, self.alive, self.chosen)
            return pred

    @property
    def feasible_batch(self) -> Callable[[tuple[int, ...]], int]:
        try:
            return self._feasible_batch
        except AttributeError:
            pred = self._feasible_batch = partial(
                _sub_batch, self.root.feasible_batch, self.alive, self.chosen)
            return pred

    def restrict(self, e: int) -> "SubInstance":
        """I(e) of this sub-instance, in root numbering."""
        return _child(self.root, self.alive, self.chosen, e)


def _child(root: SubsetProblem, alive: int, chosen: int, e: int) -> SubInstance:
    """I(e) of root's sub-instance with masks alive and chosen, by plain
    slot stores: building it is a fair share of a search node's cost."""
    if not alive >> e & 1:
        raise ValueError(f"element {e} is not selectable in {root.label}")
    child = object.__new__(SubInstance)
    child.root = root
    child.data = root.data
    child.restrict_fn = fn = root.restrict_fn
    child.alive = alive & fn(e) & ~(1 << e)
    child.chosen = chosen | 1 << e
    return child


@dataclass(frozen=True)
class EvaluatedSolution:
    members: frozenset[int]
    value: int


@dataclass(frozen=True)
class BudgetExceeded:
    universe_size: int
    budget: int


def _check_members(p: SubsetProblem, members: Iterable[int]) -> frozenset[int]:
    s = frozenset(members)
    for i in s:
        if not 0 <= i < p.universe_size:
            raise ValueError(f"member {i} outside universe of size {p.universe_size}")
    return s


def is_feasible(p: SubsetProblem, members: Iterable[int]) -> bool:
    return p.feasible_mask(mask_of(_check_members(p, members)))


# One universe per size, so that complements of one size share their int
# objects instead of each holding fresh ones (ints above 256 are not cached).
# The bound must exceed the sizes a caller cycles through, or LRU never hits.
@lru_cache(maxsize=128)
def _universe(n: int) -> frozenset[int]:
    return frozenset(range(n))


def complement(p: SubsetProblem, members: Iterable[int]) -> frozenset[int]:
    s = _check_members(p, members)
    return _universe(p.universe_size) - s


def dualize(p: SubsetProblem) -> SubsetProblem:
    """The dual problem D-P: same universe, inverse goal, a set is feasible
    iff its complement is feasible for P."""
    n = p.universe_size
    full = (1 << n) - 1

    def feas(mask: int) -> bool:
        return p.feasible_mask(full & ~mask)

    inner = p.feasible_batch

    def batch(cols: tuple[int, ...]) -> int:
        # XOR with the chunk's ones: ~c would make every column negative,
        # which slows the big-int operations of the predicate.
        ones = _chunk_ones(len(cols))
        return inner(tuple(c ^ ones for c in cols))

    return SubsetProblem(
        label="D-" + p.label,
        universe_size=n,
        goal=p.goal.flipped(),
        feasible_mask=feas,
        feasible_batch=batch,
        data=p,
    )


# No universe this large could ever be scanned: 2^62 masks.
MAX_EXHAUSTIVE = 62


def _chunk_ones(n: int) -> int:
    """All ones over the positions of one chunk of an n-element universe."""
    return (1 << (1 << min(n, _CHUNK_BITS))) - 1


@cache  # one entry per chunk width, at most _CHUNK_BITS + 1 of them
def _chunk_basis(w: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """For a chunk of 2^w positions: the column of each position bit b < w
    (bit s set iff s has bit b), the popcount layers j = 0..w (bit s set
    iff s has j bits set) and their running unions at_most[j] (bit s set iff
    s has at most j bits set)."""
    cols, layers = (), (1,)
    for k in range(w):
        half = 1 << k
        cols = tuple(c | c << half for c in cols) + (((1 << half) - 1) << half,)
        layers = tuple(lo | hi << half for lo, hi in zip(layers + (0,), (0,) + layers))
    return cols, layers, tuple(accumulate(layers, or_))


def _optima(p: SubsetProblem, budget: int):
    """BudgetExceeded, or _chunks(p) once the universe fits the budget."""
    n = p.universe_size
    if n > budget:
        return BudgetExceeded(n, budget)
    if n > MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive search is limited to {MAX_EXHAUSTIVE} elements, got {n}")
    return _chunks(p)


def _chunks(p: SubsetProblem) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """(value, base, at, cols) per chunk of the 2^n masks whose best feasible
    masks tie or beat all before: `at` marks their positions, base | s is the
    rank at position s, and cols[e] marks the positions holding element e.

    Rank r stands for the mask that holds element i iff bit n-1-i of r is
    set, so of two masks of one size the higher rank is lexicographically
    smaller.  A chunk fixes the high n-w rank bits and its positions are the
    low w; chunks are scanned from the top down, positions from high to low.
    Raises InfeasibleInstance once all are scanned if no mask is feasible."""
    n = p.universe_size
    w = min(n, _CHUNK_BITS)
    low, layers, at_most = _chunk_basis(w)
    tail, ones = low[::-1], _chunk_ones(n)
    minimize = p.goal is Goal.MINIMIZE
    best: Optional[int] = None
    for chunk in range((1 << (n - w)) - 1, -1, -1):
        cols = tuple(ones if chunk >> b & 1 else 0 for b in range(n - w - 1, -1, -1)) + tail
        feasible = p.feasible_batch(cols) & ones
        if not feasible:
            continue
        # Bisect for the least size j at which at_most[j] holds some feasible
        # position (minimize) or all of them (maximize): the best size here.
        j = bisect_left(range(w + 1), True, key=lambda j: (
            feasible & at_most[j] != 0 if minimize else feasible & at_most[j] == feasible))
        value = chunk.bit_count() + j
        if best is None or (value <= best if minimize else value >= best):
            best = value
            yield value, chunk << w, feasible & layers[j], cols
    if best is None:
        raise InfeasibleInstance(f"no subset is feasible for {p.label}")


def _members_of_rank(n: int, r: int) -> frozenset[int]:
    return members_of(int(format(r, f"0{n}b")[::-1], 2))


def brute_force_optimum(
    p: SubsetProblem, budget: int = DEFAULT_BUDGET
) -> EvaluatedSolution | BudgetExceeded:
    """Exact optimum by enumerating all 2^n subsets.

    Ties among optima break to the (cardinality, lexicographic)-smallest
    solution.  Returns BudgetExceeded when the universe is larger than the
    caller allows, so callers never rely on exhaustive search by accident,
    raises InfeasibleInstance when no subset is feasible, and raises
    ValueError above MAX_EXHAUSTIVE elements whatever the budget.
    """
    chunks = _optima(p, budget)
    if isinstance(chunks, BudgetExceeded):
        return chunks
    first = None
    for value, base, at, _ in chunks:
        if first is None or value != first[0]:
            first = value, base | at.bit_length() - 1
    return EvaluatedSolution(_members_of_rank(p.universe_size, first[1]), first[0])


def optima_meeting(
    p: SubsetProblem, meet: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, Optional[frozenset[int]]] | BudgetExceeded:
    """(number of optima, the first optimum in (cardinality, lexicographic)
    order that meets the mask `meet`, else None), counted and located in the
    scan with none listed.  The empty optimum counts as met.  Raises
    InfeasibleInstance when no subset is feasible."""
    chunks = _optima(p, budget)
    if isinstance(chunks, BudgetExceeded):
        return chunks
    best, count, first = None, 0, None
    for value, base, at, cols in chunks:
        if value != best:
            best, count, first = value, 0, None
        count += at.bit_count()
        if first is None:
            hits = at if not value else at & reduce(or_, (cols[e] for e in iter_bits(meet)), 0)
            if hits:
                first = base | hits.bit_length() - 1
    return count, None if first is None else _members_of_rank(p.universe_size, first)
