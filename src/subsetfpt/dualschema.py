"""Dual-parameterization approximation schema.

Given a primal subset problem, a polynomial oracle with ratio rho, and an
accuracy target epsilon, either the complement of the oracle's solution is
already a (1 -/+ epsilon)-approximation of the dual problem (the instance is
large relative to the optimum), or the instance is small enough for
exhaustive search.  The dispatch thresholds are exact rationals; the unknown
optimum k is replaced by an observable surrogate that only strengthens the
test, so the ratio guarantee is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .core import (
    DEFAULT_BUDGET,
    EvaluatedSolution,
    Goal,
    Infeasible,
    SubsetProblem,
    brute_force_optimum,
    complement,
    dualize,
    iter_bits,
)
from .approx import ApproxOracle, matching_vertex_cover, run_checked
from .problems import Graph, ProblemKind


class SchemaPath(Enum):
    APPROX = "approx"
    BRUTE = "brute"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SchemaConfig:
    epsilon: Fraction
    brute_cap: int = DEFAULT_BUDGET
    force_brute: bool = False

    def __post_init__(self):
        # A float goes through its shortest repr, so 0.1 means 1/10.
        eps = Fraction(str(self.epsilon) if isinstance(self.epsilon, float) else self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if not 0 < eps <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if self.brute_cap < 1:
            raise ValueError("brute_cap must be >= 1")


@dataclass
class SchemaOutcome:
    path: SchemaPath
    dual_solution: Optional[frozenset[int]]
    dual_value: Optional[int]
    guarantee: Optional[Fraction]  # >= 1-eps bound (max dual) / <= 1+eps (min dual); 1 on brute path
    exact: bool
    diagnostics: dict


def _threshold(rho: Fraction, epsilon: Fraction, goal: Goal) -> tuple[int, int]:
    """threshold_min (goal MINIMIZE) or threshold_max as an unreduced
    (numerator, denominator) pair of ints, so that a dispatch test is one
    integer cross-multiplication."""
    rn, rd, en, ed = rho.numerator, rho.denominator, epsilon.numerator, epsilon.denominator
    if goal is Goal.MINIMIZE:
        if rn < rd:
            raise ValueError("minimization ratio must be >= 1")
        num = (rn - rd) * ed + en * rd  # (rho - 1 + epsilon) * rd * ed
    else:
        if not 0 < rn <= rd:
            raise ValueError("maximization ratio must be in (0, 1]")
        num = (rd - rn) * ed + en * rd  # (1 - rho + epsilon) * rd * ed
    if not 0 < en <= ed:
        raise ValueError("epsilon must be in (0, 1]")
    return num, en * rd


def threshold_min(rho: Fraction, epsilon: Fraction) -> Fraction:
    """Instance-size factor above which complementing a rho-approximate
    minimizer is (1 - epsilon)-good for the dual maximization problem:
    (rho - 1 + epsilon)/epsilon."""
    return Fraction(*_threshold(Fraction(rho), Fraction(epsilon), Goal.MINIMIZE))


def threshold_max(rho: Fraction, epsilon: Fraction) -> Fraction:
    """Dual counterpart for maximization: (1 - rho + epsilon)/epsilon, which
    is below 2/epsilon for every rho > 0 and epsilon <= 1.

    Derivation: the dual ratio is (n - k')/(n - k) <= (n - rho*k)/(n - k)
    since k' >= rho*k; requiring that to be <= 1 + epsilon solves to
    n >= ((1 - rho + epsilon)/epsilon) * k.
    """
    return Fraction(*_threshold(Fraction(rho), Fraction(epsilon), Goal.MAXIMIZE))


def dual_approx(
    p: SubsetProblem, oracle: ApproxOracle, cfg: SchemaConfig
) -> SchemaOutcome:
    """Approximate the dual of p within 1 -/+ epsilon.

    p is the primal problem; the returned solution solves dualize(p).
    """
    if oracle.goal is not p.goal:
        raise ValueError("oracle goal must match the primal problem's goal")
    n = p.universe_size
    eps = cfg.epsilon
    sol = run_checked(oracle, p)
    k_prime = len(sol)
    rho = oracle.ratio(p)
    num, den = _threshold(rho, eps, p.goal)
    if p.goal is Goal.MINIMIZE:
        # k' >= k, so n >= c*k' implies the true condition n >= c*k.
        surrogate_k = k_prime
    else:
        # k' >= rho*k bounds k from above; so does the kind's own bound.
        bound = built_in_upper_bound(p)
        k_over_rho = -(-k_prime * rho.denominator // rho.numerator)  # ceil(k'/rho)
        surrogate_k = min(n, k_over_rho, n if bound is None else bound)
    take_approx = n * den >= num * surrogate_k  # n >= c * surrogate_k
    diag: dict = {"n": n, "k_prime": k_prime, "rho": str(rho), "epsilon": str(eps),
                  "threshold": str(Fraction(num, den)), "surrogate_k": surrogate_k,
                  "dual_parameter": n - k_prime}

    if take_approx and not cfg.force_brute:
        dual_sol = complement(p, sol)
        guarantee = 1 - eps if p.goal is Goal.MINIMIZE else 1 + eps
        return SchemaOutcome(
            path=SchemaPath.APPROX,
            dual_solution=dual_sol,
            dual_value=n - k_prime,
            guarantee=guarantee,
            exact=False,
            diagnostics=diag,
        )
    if n <= cfg.brute_cap:
        res = brute_force_optimum(dualize(p), budget=cfg.brute_cap)
        if isinstance(res, Infeasible):
            raise ValueError("dual instance is infeasible")
        assert isinstance(res, EvaluatedSolution)
        return SchemaOutcome(
            path=SchemaPath.BRUTE,
            dual_solution=res.members,
            dual_value=res.value,
            guarantee=Fraction(1),
            exact=True,
            diagnostics=diag,
        )
    return SchemaOutcome(
        path=SchemaPath.BUDGET_EXCEEDED,
        dual_solution=None,
        dual_value=None,
        guarantee=None,
        exact=False,
        diagnostics=diag,
    )


def built_in_upper_bound(p: SubsetProblem) -> Optional[int]:
    """Cheap combinatorial upper bound on the primal optimum, for the
    maximization dispatch test."""
    if p.kind is ProblemKind.INDEPENDENT_SET and isinstance(p.data, Graph):
        # alpha(G) = n - tau(G) <= n - (size of a maximal matching)
        return p.data.n - len(matching_vertex_cover(p.data)) // 2
    if p.kind is ProblemKind.CLIQUE and isinstance(p.data, Graph):
        g = p.data
        alive = (1 << g.n) - 1
        degeneracy = 0
        while alive:
            v = min(iter_bits(alive), key=lambda u: (g.adj[u] & alive).bit_count())
            degeneracy = max(degeneracy, (g.adj[v] & alive).bit_count())
            alive &= ~(1 << v)
        return degeneracy + 1
    return None
