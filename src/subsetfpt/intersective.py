"""Branching engine driven by an approximation oracle, plus the
intersectivity verifier.

The engine turns an oracle whose output always meets some optimal solution
into an exact parameterized solver: at every node it runs the oracle on the
current sub-instance and branches only on the returned elements.  A node's
room is the budget minus its depth, or |incumbent| - 1 minus its depth once
a minimization holds one; a node whose oracle output is larger than ratio *
room has no solution that fits and is pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .core import (
    BudgetExceeded,
    SubInstance,
    SubsetProblem,
    UnsupportedRestriction,
    Goal,
    DEFAULT_BUDGET,
    iter_bits,
    mask_of,
    members_of,
    optima_meeting,
)
from .approx import ApproxOracle, run_checked


DEFAULT_NODE_CAP = 1_000_000


class BranchOutcome(Enum):
    FOUND = "found"
    NO_INSTANCE = "no-instance"
    NODE_CAP_EXCEEDED = "node-cap-exceeded"


@dataclass(frozen=True)
class BranchConfig:
    budget_k: int
    node_cap: int = DEFAULT_NODE_CAP
    prune_enabled: bool = True

    def __post_init__(self):
        if self.budget_k < 0:
            raise ValueError("budget_k must be >= 0")
        if self.node_cap < 1:
            raise ValueError("node_cap must be >= 1")


@dataclass
class BranchReport:
    outcome: BranchOutcome
    solution: Optional[frozenset[int]]
    nodes_expanded: int
    max_depth: int
    max_arity: int

    @property
    def value(self) -> Optional[int]:
        return None if self.solution is None else len(self.solution)


def branch_solve_min(
    p: SubsetProblem, oracle: ApproxOracle, cfg: BranchConfig
) -> BranchReport:
    """Exact minimization within budget_k, assuming the oracle is
    intersective at every explored sub-instance.

    Any FOUND solution is unconditionally feasible; exactness (and the
    correctness of NO_INSTANCE) is what intersectivity buys.  Among the
    smallest solutions found, ties break to the lexicographically smallest.
    """
    if p.goal is not Goal.MINIMIZE:
        raise ValueError("branch_solve_min needs a minimization problem")
    return _branch(p, oracle, cfg)


def branch_solve_max(
    p: SubsetProblem, oracle: ApproxOracle, cfg: BranchConfig
) -> BranchReport:
    """Find a solution of size budget_k (complete under per-node
    intersectivity of the oracle)."""
    if p.goal is not Goal.MAXIMIZE:
        raise ValueError("branch_solve_max needs a maximization problem")
    return _branch(p, oracle, cfg)


def check_branchable(p: SubsetProblem, oracle: ApproxOracle) -> None:
    """The engine's refusals, raised before its first node."""
    oracle.check_goal(p)
    if p.restrict_fn is None:
        raise UnsupportedRestriction(p)


def _rank(chosen: int) -> tuple[int, tuple[int, ...]]:
    return chosen.bit_count(), tuple(iter_bits(chosen))


def _branch(p: SubsetProblem, oracle: ApproxOracle, cfg: BranchConfig) -> BranchReport:
    """Depth-first search over sub-instances of p, branching on the oracle's
    output at each one.

    A node is the sub-instance reached from p by choosing the elements of
    its `chosen` mask beyond p's own; those form its candidate solution.
    For every restrictable kind that sub-instance depends on the chosen set
    alone, not on the order of choice, so each chosen set is expanded once.
    A node with no room (see the module docstring) is a leaf; minimization
    keeps the best solution seen and prunes a node whose oracle output
    exceeds ratio times its room; maximization stops at the first feasible
    set of size budget_k.  An oracle for the other goal or a problem without
    a restriction operator is refused before the first node.  Open nodes
    wait as frames on an explicit stack: a search of any depth answers.
    Every node's solution is tested with p's own predicate, so the
    predicates of a sub-instance, built on first read, are never built for
    the nodes that only feed the oracle.
    """
    check_branchable(p, oracle)
    minimize = p.goal is Goal.MINIMIZE
    run, feasible, cap = oracle.run, p.feasible_mask, cfg.node_cap
    ratio = oracle.ratio if minimize and cfg.prune_enabled else None
    r = num = den = None  # the last ratio read, and its two terms
    # The deepest a solution may lie: the budget, then |incumbent| - 1.
    limit = cfg.budget_k
    nodes = max_depth = max_arity = 0
    cap_hit = False
    best: Optional[int] = None  # the incumbent, as a solution of p
    seen: set[int] = set()
    # p's own chosen elements lie outside p.alive, so p's predicate would
    # reject them: a node's solution is what it chose beyond them.
    inherited = chosen = p.chosen
    # Each frame is an expanded node, its chosen mask and an iterator over
    # its untried branch elements; the open frames are the ancestors of the
    # current node, so their number is its depth.  A child meets the memo
    # only when it comes up, after its older siblings' subtrees are done,
    # and is restricted only if it is visited.
    frames: list[tuple[SubsetProblem | SubInstance, int, Iterator[int]]] = []
    inst = p
    while True:
        nodes += 1
        own = chosen ^ inherited
        depth = len(frames)
        if depth > max_depth:
            max_depth = depth
        room = limit - depth
        if (minimize or room == 0) and feasible(own):
            if best is None or _rank(own) < _rank(best):
                best, limit = own, depth - 1
            if not minimize:
                break
        elif room > 0:
            sol = run(inst)
            if ratio is not None and (q := ratio(inst)) is not r:
                r, num, den = q, q.numerator, q.denominator
            if ratio is None or len(sol) * den <= num * room:
                if len(sol) > max_arity:
                    max_arity = len(sol)
                frames.append((inst, chosen, iter(sorted(sol))))
        while frames:
            parent, parent_chosen, untried = frames[-1]
            for e in untried:
                chosen = parent_chosen | 1 << e
                if chosen not in seen:
                    break
            else:
                frames.pop()
                continue
            seen.add(chosen)
            break
        else:
            break
        if nodes >= cap:
            cap_hit = True
            break
        inst = parent.restrict(e)
    # Maximization stops at its first solution, before any node-cap hit.
    if cap_hit:
        outcome = BranchOutcome.NODE_CAP_EXCEEDED
    elif best is not None:
        outcome = BranchOutcome.FOUND
    else:
        outcome = BranchOutcome.NO_INSTANCE
    solution = None if best is None else members_of(best)
    return BranchReport(outcome, solution, nodes, max_depth, max_arity)


class Verdict(Enum):
    INTERSECTIVE = "intersective"
    NOT_INTERSECTIVE = "not-intersective"
    INCONCLUSIVE = "inconclusive"


@dataclass
class IntersectivityReport:
    oracle_solution: frozenset[int]
    optima_checked: int  # the number of optima, all of them checked
    intersecting_optimum: Optional[frozenset[int]]  # the first one met
    verdict: Verdict


def verify_intersective(
    p: SubsetProblem, oracle: ApproxOracle, budget: int = DEFAULT_BUDGET
) -> IntersectivityReport:
    """Check whether the oracle's output meets at least one optimal solution,
    by one exhaustive scan that counts the optima and locates the first met;
    an empty optimum counts as met, since the engine accepts it before it
    runs the oracle.  An output infeasible for p raises InfeasibleOutput."""
    sol = run_checked(oracle, p)
    hit = optima_meeting(p, mask_of(sol), budget)
    if isinstance(hit, BudgetExceeded):
        return IntersectivityReport(sol, 0, None, Verdict.INCONCLUSIVE)
    count, opt = hit
    verdict = Verdict.NOT_INTERSECTIVE if opt is None else Verdict.INTERSECTIVE
    return IntersectivityReport(sol, count, opt, verdict)
