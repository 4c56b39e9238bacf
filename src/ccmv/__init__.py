"""Cardinality-constrained mean-variance portfolio solvers and backtesting."""

from .backtest import BacktestConfig, BacktestReport, gap, in_sample_stats, rolling_horizon
from .model import (
    MomentEstimate,
    ProblemSpec,
    ReturnsMatrix,
    Solution,
    SolverConfig,
    STATUS_CONVERGED,
    STATUS_MAX_ITERATIONS,
    estimate_moments,
    make_feasible_point,
    max_eigenvalue,
    objective_f,
    penalty_q,
    validate_problem,
)
from .oracle import OracleResult, brute_force_solve
from .padm import ccmv_padm_solve, padm_x_step, padm_y_step
from .pd import (
    bcd_inner,
    build_factorization,
    ccmv_pd_solve,
    kkt_check,
    polish_support,
    x_step,
    y_step,
)

__all__ = [
    "BacktestConfig",
    "BacktestReport",
    "MomentEstimate",
    "OracleResult",
    "ProblemSpec",
    "ReturnsMatrix",
    "Solution",
    "SolverConfig",
    "STATUS_CONVERGED",
    "STATUS_MAX_ITERATIONS",
    "bcd_inner",
    "brute_force_solve",
    "build_factorization",
    "ccmv_padm_solve",
    "ccmv_pd_solve",
    "estimate_moments",
    "gap",
    "in_sample_stats",
    "kkt_check",
    "make_feasible_point",
    "max_eigenvalue",
    "objective_f",
    "padm_x_step",
    "padm_y_step",
    "penalty_q",
    "polish_support",
    "rolling_horizon",
    "validate_problem",
    "x_step",
    "y_step",
]

__version__ = "0.1.0"
