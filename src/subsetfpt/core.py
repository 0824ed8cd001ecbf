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

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 20

_CHUNK = 1 << 20


class UnsupportedRestriction(ValueError):
    """Raised when a problem kind has no sub-instance operator."""


class InfeasibleInstance(Exception):
    """Raised by oracles when the instance admits no feasible solution."""


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


@dataclass(frozen=True)
class SubsetProblem:
    """Uniform contract for problems whose solutions are subsets of a universe.

    feasible_mask takes an integer bitmask over [0, universe_size).
    feasible_batch, when present, evaluates a whole numpy array of masks at
    once (used by the exhaustive oracles for speed).  numpy is imported on
    its first call, only when brute force takes the batch path, so building
    a problem never loads it.

    A sub-instance is its root instance plus two masks in root numbering:
    `alive`, the elements still selectable, and `chosen`, the elements
    already picked.  Its feasible sets are the S within alive for which
    S | chosen is feasible at the root.  On the kinds that have a
    sub-instance operator, restrict_fn(e) is the mask of elements that can
    still join a solution holding e; other kinds leave it as None.
    """

    label: str
    universe_size: int
    goal: Goal
    feasible_mask: Callable[[int], bool]
    restrict_fn: Optional[Callable[[int], int]] = None
    feasible_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    kind: object = None
    data: object = None
    alive: Optional[int] = None  # None: the whole universe
    chosen: int = 0
    root: Optional["SubsetProblem"] = None  # None for a root instance

    def __post_init__(self):
        if self.alive is None:
            object.__setattr__(self, "alive", (1 << self.universe_size) - 1)

    def restrict(self, e: int) -> "SubsetProblem":
        """I(e): the sub-instance whose solutions S' are exactly those with
        S' + {e} feasible here."""
        if self.restrict_fn is None:
            raise UnsupportedRestriction(f"{self.label} has no restriction operator")
        if not (self.alive >> e) & 1:
            raise ValueError(f"element {e} is not selectable in {self.label}")
        root = self.root or self
        alive = self.alive & self.restrict_fn(e) & ~(1 << e)
        chosen = self.chosen | (1 << e)
        # Built by hand: dataclasses.replace would cost most of a search node.
        child = object.__new__(SubsetProblem)
        child.__dict__.update(
            root.__dict__,
            feasible_mask=partial(_sub_feasible, root.feasible_mask, alive, chosen),
            feasible_batch=None,
            alive=alive,
            chosen=chosen,
            root=root,
        )
        return child


def _sub_feasible(root_feasible, alive: int, chosen: int, mask: int) -> bool:
    return not mask & ~alive and root_feasible(mask | chosen)


@dataclass(frozen=True)
class EvaluatedSolution:
    members: frozenset[int]
    value: int
    optimal: bool = False


@dataclass(frozen=True)
class Infeasible:
    """No subset of the universe is feasible."""


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


def complement(p: SubsetProblem, members: Iterable[int]) -> frozenset[int]:
    s = _check_members(p, members)
    return frozenset(range(p.universe_size)) - s


def dualize(p: SubsetProblem) -> SubsetProblem:
    """The dual problem D-P: same universe, inverse goal, a set is feasible
    iff its complement is feasible for P."""
    n = p.universe_size
    full = (1 << n) - 1

    def feas(mask: int) -> bool:
        return p.feasible_mask(full & ~mask)

    batch = None
    if p.feasible_batch is not None:
        inner = p.feasible_batch

        def batch(masks: np.ndarray) -> np.ndarray:
            return inner(full & ~masks)

    return SubsetProblem(
        label="D-" + p.label,
        universe_size=n,
        goal=p.goal.flipped(),
        feasible_mask=feas,
        feasible_batch=batch,
        data=p,
    )


# Masks are int64 lanes on the batch path, and a universe this large could
# never be swept anyway.
MAX_EXHAUSTIVE = 62


def _sweep_optima(p: SubsetProblem, all_ties: bool) -> Optional[tuple[int, list[int]]]:
    """(value, optimal masks in lexicographic order) by cardinality sweep;
    only the first optimum unless all_ties.  None if infeasible."""
    n = p.universe_size
    cards = range(n + 1) if p.goal is Goal.MINIMIZE else range(n, -1, -1)
    for r in cards:
        found = []
        for combo in itertools.combinations(range(n), r):
            m = mask_of(combo)
            if p.feasible_mask(m):
                found.append(m)
                if not all_ties:
                    break
        if found:
            return r, found
    return None


def _lex_ranks(masks: np.ndarray, n: int) -> np.ndarray:
    import numpy as np

    # Larger rank <=> lexicographically smaller sorted member tuple.
    ranks = np.zeros(masks.shape, dtype=np.int64)
    for i in range(n):
        ranks |= ((masks >> i) & 1) << (n - 1 - i)
    return ranks


def _batch_optima(p: SubsetProblem, all_ties: bool) -> Optional[tuple[int, list[int]]]:
    """The same as _sweep_optima, from one pass of feasible_batch over all
    2^n masks in chunks."""
    import numpy as np

    n = p.universe_size
    minimize = p.goal is Goal.MINIMIZE
    best: Optional[int] = None
    tied: list[np.ndarray] = []  # per chunk, the masks of value best
    for start in range(0, 1 << n, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
        cand = masks[p.feasible_batch(masks)]
        if cand.size == 0:
            continue
        pops = np.bitwise_count(cand)
        val = int(pops.min() if minimize else pops.max())
        if best is not None and (val > best if minimize else val < best):
            continue
        if val != best:
            best, tied = val, []
        cand = cand[pops == val]
        if not all_ties:
            cand = cand[[_lex_ranks(cand, n).argmax()]]
        tied.append(cand)
    if best is None:
        return None
    cand = np.concatenate(tied)
    cand = cand[np.argsort(-_lex_ranks(cand, n))]
    return best, [int(m) for m in (cand if all_ties else cand[:1])]


def _optima(p: SubsetProblem, budget: int, all_ties: bool):
    n = p.universe_size
    if n > budget:
        return BudgetExceeded(n, budget)
    if n > MAX_EXHAUSTIVE:
        raise ValueError(
            f"exhaustive search is limited to {MAX_EXHAUSTIVE} elements, got {n}"
        )
    scan = _batch_optima if p.feasible_batch is not None and n >= 14 else _sweep_optima
    return scan(p, all_ties)


def brute_force_optimum(
    p: SubsetProblem, budget: int = DEFAULT_BUDGET
) -> EvaluatedSolution | Infeasible | BudgetExceeded:
    """Exact optimum by enumerating all 2^n subsets.

    Ties among optima break to the (cardinality, lexicographic)-smallest
    solution.  Returns BudgetExceeded when the universe is larger than the
    caller allows, so callers never rely on exhaustive search by accident,
    and raises ValueError above MAX_EXHAUSTIVE elements whatever the budget.
    """
    hit = _optima(p, budget, all_ties=False)
    if hit is None:
        return Infeasible()
    if isinstance(hit, BudgetExceeded):
        return hit
    value, (mask,) = hit
    return EvaluatedSolution(members_of(mask), value, optimal=True)


def enumerate_optima(
    p: SubsetProblem, budget: int = DEFAULT_BUDGET
) -> list[frozenset[int]] | BudgetExceeded:
    """All optimal solutions in (cardinality, lexicographic) order; empty
    list iff the instance is infeasible."""
    hit = _optima(p, budget, all_ties=True)
    if hit is None:
        return []
    if isinstance(hit, BudgetExceeded):
        return hit
    return [members_of(m) for m in hit[1]]
