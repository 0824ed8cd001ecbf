"""Parameterized approximation engines for subset problems.

Two engines over a uniform subset-problem contract:

* an oracle-driven branching solver that is exact whenever the oracle's
  output meets some optimal solution at every explored sub-instance, and
* a dual-parameterization schema that either complements a polynomial
  approximation or falls back to exhaustive search, achieving ratio
  1 - eps / 1 + eps for the dual problem.

Both are instantiated over classic graph and set-system problems and are
verified against brute-force oracles at desk scale.
"""

from .core import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    EvaluatedSolution,
    Goal,
    InfeasibleInstance,
    SubInstance,
    SubsetProblem,
    UnsupportedRestriction,
    brute_force_optimum,
    complement,
    dualize,
    is_feasible,
    iter_bits,
    mask_of,
    members_of,
)
from .problems import (
    Graph,
    ProblemKind,
    RESTRICTABLE,
    SetSystem,
    make_problem,
    packing_upper_bound,
)
from .approx import (
    ApproxOracle,
    DEFAULT_ORACLE,
    ORACLES,
    greedy_clique,
    greedy_dominating_set,
    greedy_maximal_independent_set,
    greedy_set_cover,
    harmonic,
    matching_vertex_cover,
)
from .intersective import (
    BranchConfig,
    BranchOutcome,
    BranchReport,
    IntersectivityReport,
    Verdict,
    branch_solve_max,
    branch_solve_min,
    verify_intersective,
)
from .dualschema import (
    SchemaConfig,
    SchemaOutcome,
    SchemaPath,
    dual_approx,
    threshold_max,
    threshold_min,
)

__all__ = [name for name in dir() if not name.startswith("_")]
