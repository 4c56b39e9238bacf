"""Correctness gate applied to every portfolio the benchmark gets back.

A solver call fails if it raises, or if its portfolio has more than k
nonzeros, a negative weight, |e'x - 1| > 1e-9, a non-finite entry, or a
reported objective that differs from f(x) recomputed here. Calls of solvers
that certify their output (pd, padm) also fail if the KKT residual exceeds
1e-8 or is missing.
"""

from __future__ import annotations

import numpy as np

BUDGET_TOL = 1e-9
KKT_TOL = 1e-8
OBJECTIVE_RTOL = 1e-9
SANDWICH_TOL = 1e-9


def objective(A: np.ndarray, mu: np.ndarray, tau: float, x: np.ndarray) -> float:
    """f(x) = x'Ax - tau * mu'x, computed independently of the program."""
    return float(x @ (A @ x) - tau * (mu @ x))


def portfolio_faults(spec, x, reported_objective: float,
                     kkt_residual: float | None) -> list[str]:
    """Every rule the portfolio breaks; empty when it passes.

    kkt_residual is None for a solver that issues no certificate.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n,):
        return [f"weights have shape {x.shape}, expected ({spec.n},)"]
    if not np.isfinite(x).all():
        return ["non-finite weight"]
    faults = []
    nnz = int(np.count_nonzero(x))
    if nnz > spec.k:
        faults.append(f"{nnz} nonzeros exceed k={spec.k}")
    if x.min() < 0.0:
        faults.append(f"negative weight {x.min():.3e}")
    budget = abs(float(x.sum()) - 1.0)
    if budget > BUDGET_TOL:
        faults.append(f"|e'x - 1| = {budget:.3e} exceeds {BUDGET_TOL:g}")
    if kkt_residual is not None and not kkt_residual <= KKT_TOL:
        faults.append(f"KKT residual {kkt_residual:.3e} exceeds {KKT_TOL:g}")
    f = objective(spec.A, spec.mu, spec.tau, x)
    if not abs(f - reported_objective) <= OBJECTIVE_RTOL * (1.0 + abs(f)):
        faults.append(f"reported objective {reported_objective!r} differs from f(x) = {f!r}")
    return faults


def sandwich_faults(f_opt: float, others: dict[str, float]) -> list[str]:
    """The exact optimum may not exceed any local solver's objective."""
    return [f"oracle objective {f_opt!r} exceeds {name} objective {f!r} + {SANDWICH_TOL:g}"
            for name, f in others.items() if f_opt > f + SANDWICH_TOL]
