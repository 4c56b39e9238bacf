"""Alternating-direction baseline with an l1 coupling penalty.

Same outer penalty schedule as the main solver, but the inner block steps
minimize f(x) + rho*||x - y||_1: the x-block over the simplex (iterative, no
closed form) and the y-block over {e'y = 1, ||y||_0 <= k} (exact closed form:
a sort, a prefix-sum choice of support, a single-coordinate mass shift).
"""

from __future__ import annotations

import logging
import time

import numpy as np

from .model import (
    OuterRecord,
    ProblemSpec,
    Solution,
    SolverConfig,
    STATUS_CONVERGED,
    STATUS_MAX_ITERATIONS,
    make_feasible_point,
    max_eigenvalue,
    objective_f,
    validate_problem,
)
from .pd import _project_simplex, _relative_change, kkt_check, polish_support

log = logging.getLogger("ccmv")


def padm_x_step(
    spec: ProblemSpec,
    rho: float,
    y: np.ndarray,
    tol: float = 1e-8,
    x0: np.ndarray | None = None,
    lam_max: float | None = None,
) -> np.ndarray:
    """Approximate minimizer of f(x) + rho*||x - y||_1 over the simplex.

    Three-operator splitting: gradient step on the quadratic, shrinkage toward
    y for the l1 term, Euclidean simplex projection for feasibility. Step size
    1/(2*lambda_max(A) + 2*rho); deterministic given x0.
    """
    y = np.asarray(y, dtype=float)
    n = spec.n
    if lam_max is None:
        lam_max = max_eigenvalue(spec.A)
    max_iter = max(10 * n, 500)
    gamma = 1.0 / (2.0 * lam_max + 2.0 * rho)
    z = np.full(n, 1.0 / n) if x0 is None else np.asarray(x0, dtype=float).copy()
    x = _project_simplex(z)
    phi_prev = np.inf
    for it in range(max_iter):
        x = _project_simplex(z)
        grad = 2.0 * (spec.A @ x) - spec.tau * spec.mu
        v = 2.0 * x - z - gamma * grad
        # shrinkage toward y with threshold gamma*rho
        d = v - y
        xa = y + np.sign(d) * np.maximum(np.abs(d) - gamma * rho, 0.0)
        z = z + xa - x
        if it % 10 == 9:
            phi = objective_f(spec, x) + rho * float(np.abs(x - y).sum())
            if abs(phi_prev - phi) <= tol * (1.0 + abs(phi)):
                break
            phi_prev = phi
    else:
        log.debug("padm_x_step hit iteration cap %d at rho=%g", max_iter, rho)
    return _project_simplex(z)


def padm_y_step(x: np.ndarray, k: int) -> np.ndarray:
    """Exact minimizer of ||x - y||_1 over {e'y = 1, ||y||_0 <= k}, in O(n log n).

    For a fixed support S the optimum copies x on S and shifts the budget
    deficit onto one coordinate (the largest |x_i| kept; ties: lowest index),
    at cost sum|x| + max(1 - 2p, -1 - 2m), where p sums the positive entries
    kept and m the magnitudes of the nonpositive ones. The cost falls as p and
    m grow, so the best S holds the a largest positives and the k - a
    nonpositives of largest magnitude (ties: lowest index); the split a is
    chosen over the prefix sums, ties going to more positives, which is plain
    top-k on simplex inputs.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    k = min(k, n)
    pos = np.flatnonzero(x > 0.0)
    pos = pos[np.lexsort((pos, -x[pos]))]
    neg = np.flatnonzero(x <= 0.0)
    neg = neg[np.lexsort((neg, x[neg]))]
    p = np.concatenate(([0.0], np.cumsum(x[pos])))
    m = np.concatenate(([0.0], np.cumsum(-x[neg])))
    splits = np.arange(min(k, pos.size), max(0, k - neg.size) - 1, -1)  # most positives first
    cost = np.maximum(1.0 - 2.0 * p[splits], -1.0 - 2.0 * m[k - splits])
    a = int(splits[np.argmin(cost)])
    S = np.concatenate((pos[:a], neg[: k - a]))

    y = np.zeros(n)
    y[S] = x[S]
    delta = 1.0 - float(y.sum())
    if delta != 0.0:
        y[S[np.lexsort((S, -np.abs(x[S])))[0]]] += delta  # largest |x_i|, lowest index
    return y


def ccmv_padm_solve(spec: ProblemSpec, cfg: SolverConfig | None = None) -> Solution:
    """Outer penalty schedule around the l1 block steps; polish and certify."""
    t0 = time.perf_counter()
    cfg = cfg or SolverConfig()
    lam_max = validate_problem(spec)

    from .pd import dense_simplex_minimizer

    rho = cfg.rho0
    x_feas = make_feasible_point(spec)
    x = dense_simplex_minimizer(spec)
    y = padm_y_step(x, spec.k)

    trace: list[OuterRecord] = []
    status = STATUS_MAX_ITERATIONS
    for _ in range(cfg.max_outer):
        inner_iters = 0
        for _ in range(cfg.max_inner):
            x_new = padm_x_step(spec, rho, y, tol=1e-10, x0=x, lam_max=lam_max)
            y_new = padm_y_step(x_new, spec.k)
            inner_iters += 1
            delta = max(_relative_change(x_new, x), _relative_change(y_new, y))
            x, y = x_new, y_new
            if delta <= cfg.eps_inner:
                break
        infeas = float(np.abs(x - y).max())
        phi = objective_f(spec, x) + rho * float(np.abs(x - y).sum())
        trace.append(OuterRecord(rho=rho, inner_iters=inner_iters, q=phi, infeas=infeas))
        if infeas <= cfg.eps_outer:
            status = STATUS_CONVERGED
            break
        rho *= cfg.zeta

    support = tuple(int(i) for i in np.flatnonzero(y != 0.0))[: spec.k]
    if not support:
        support = tuple(int(i) for i in np.flatnonzero(x_feas != 0.0))
    weights, objective = polish_support(spec, support)
    support = tuple(int(i) for i in np.flatnonzero(weights != 0.0))
    cert = kkt_check(spec, weights, support)
    return Solution(
        weights=weights,
        support=support,
        objective=objective,
        kkt=cert,
        status=status,
        trace=trace,
        solver="padm",
        wall_time=time.perf_counter() - t0,
    )
