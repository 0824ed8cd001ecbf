"""Dual-parameterization approximation schema.

Given a primal subset problem, a polynomial oracle with ratio rho, and an
accuracy target epsilon, either the complement of the oracle's solution is
already a (1 -/+ epsilon)-approximation of the dual problem (the instance is
large relative to the optimum), or the instance is small enough for
exhaustive search.  The dispatch thresholds are exact rationals; the unknown
optimum k is replaced by an observable surrogate that only strengthens the
test, so the ratio guarantee is preserved: k' for a minimization primal,
else the lesser of ceil(k'/rho) and problems.packing_upper_bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .core import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Goal,
    SubsetProblem,
    brute_force_optimum,
    complement,
    dualize,
)
from .approx import ApproxOracle, run_checked
from .problems import packing_upper_bound


def _exact(x) -> Fraction:
    """A passed ratio or epsilon, a float through its shortest repr: 0.1 is 1/10."""
    return Fraction(repr(x) if isinstance(x, float) else x)


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
        eps = _exact(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if not 0 < eps <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if self.brute_cap < 1:
            raise ValueError("brute_cap must be >= 1")


@dataclass
class SchemaOutcome:
    path: SchemaPath
    diagnostics: dict
    # The answer, None past the budget.  guarantee bounds the ratio to the
    # optimum: >= 1-eps (max dual) / <= 1+eps (min dual); 1 on brute path.
    dual_solution: Optional[frozenset[int]] = None
    dual_value: Optional[int] = None
    guarantee: Optional[Fraction] = None
    exact: bool = False


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
    return Fraction(*_threshold(_exact(rho), _exact(epsilon), Goal.MINIMIZE))


def threshold_max(rho: Fraction, epsilon: Fraction) -> Fraction:
    """Dual counterpart for maximization: (1 - rho + epsilon)/epsilon, which
    is below 2/epsilon for every rho > 0 and epsilon <= 1.

    Derivation: the dual ratio is (n - k')/(n - k) <= (n - rho*k)/(n - k)
    since k' >= rho*k; requiring that to be <= 1 + epsilon solves to
    n >= ((1 - rho + epsilon)/epsilon) * k.
    """
    return Fraction(*_threshold(_exact(rho), _exact(epsilon), Goal.MAXIMIZE))


def dual_approx(
    p: SubsetProblem, oracle: ApproxOracle, cfg: SchemaConfig
) -> SchemaOutcome:
    """Approximate the dual of p within 1 -/+ epsilon.

    p is the primal problem; the returned solution solves dualize(p).
    """
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
        # k' >= rho*k bounds k from above; so does the packing bound.
        k_over_rho = -(-k_prime * rho.denominator // rho.numerator)  # ceil(k'/rho)
        surrogate_k = min(k_over_rho, packing_upper_bound(p))
    take_approx = n * den >= num * surrogate_k  # n >= c * surrogate_k
    diag: dict = {"n": n, "k_prime": k_prime, "rho": str(rho), "epsilon": str(eps),
                  "threshold": str(Fraction(num, den)), "surrogate_k": surrogate_k,
                  "dual_parameter": n - k_prime}

    if take_approx and not cfg.force_brute:
        guarantee = 1 - eps if p.goal is Goal.MINIMIZE else 1 + eps
        return SchemaOutcome(SchemaPath.APPROX, diag, complement(p, sol), n - k_prime, guarantee)
    # sol is feasible, so its complement is dual-feasible: within budget, an optimum exists.
    res = brute_force_optimum(dualize(p), budget=cfg.brute_cap)
    if isinstance(res, BudgetExceeded):
        return SchemaOutcome(SchemaPath.BUDGET_EXCEEDED, diag)
    return SchemaOutcome(SchemaPath.BRUTE, diag, res.members, res.value, Fraction(1), exact=True)
