"""Exact-penalty reformulation of equality-constrained problems over closed
convex sets, solved with projection-based first-order methods."""

from .sets import (
    DEFAULT_TOL,
    Box,
    ConvexSet,
    DimensionMismatch,
    DomainViolation,
    NonnegOrthant,
    NormBall,
    Product,
    ProjectionNotConverged,
    SpectralBall,
)
from .mappings import (
    ConstraintMap,
    DissolvingMap,
    PenaltyProblem,
    build_aq,
    empty_constraint_map,
    h_grad,
    h_value,
    sphere_nonneg_map,
)
from .solvers import (
    SolveResult,
    SolverConfig,
    feasibility_measure,
    kkt_residual_original,
    solve,
    stationarity_measure,
)
from .diagnostics import (
    CheckReport,
    assumption_a_check,
    grad_check,
    local_error_bound_probe,
    pi_sigma,
)
from .problems import (
    ProblemInstance,
    build_problem,
    feasible_points,
    gen_fpca,
    gen_npca,
    gen_qpb,
    near_feasible_points,
    reference_small_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
