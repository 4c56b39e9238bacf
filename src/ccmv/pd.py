"""Penalty decomposition solver for the k-sparse mean-variance problem.

Inner loop: block coordinate descent alternating a closed-form solve over the
budget hyperplane {e'x = 1} with a clamp-and-keep-top-k thresholding step.
Outer loop: geometric penalty growth with a level-set safeguard. The
discovered support is then polished by a finite primal active-set solve of
the convex QP restricted to it (exact for any support size), and the result
carries a KKT certificate.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .errors import BadSupport, MonotonicityViolation, NumericalBreakdown
from .model import (
    KktCertificate,
    OuterRecord,
    ProblemSpec,
    Solution,
    SolverConfig,
    STATUS_CONVERGED,
    STATUS_MAX_ITERATIONS,
    make_feasible_point,
    max_eigenvalue,
    objective_f,
    penalty_q,
    validate_problem,
)

log = logging.getLogger("ccmv")

# x_i below this is treated as active at zero when classifying KKT multipliers.
ACTIVE_TOL = 1e-10

# q_rho may increase by at most this relative amount between BCD iterations
# before we declare a bug.
MONOTONE_TOL = 1e-9

EPS = float(np.finfo(float).eps)

# Iteration guard of polish_support: each active-set step adds or drops one
# coordinate, and in practice it ends within a few passes over the support.
POLISH_STEPS_PER_ASSET = 50


@dataclass
class PenaltyFactorization:
    """Cholesky factor of (A + rho*I) plus the cached solves the x-step reuses."""

    rho: float
    chol: tuple
    s: np.ndarray      # (A + rho I)^{-1} e
    t: np.ndarray      # (A + rho I)^{-1} (tau * mu)
    ets: float         # e's


def build_factorization(spec: ProblemSpec, rho: float) -> PenaltyFactorization:
    """Factor (A + rho*I) once per penalty level; each x-step is then one solve."""
    n = spec.n
    M = spec.A + rho * np.eye(n)
    try:
        chol = cho_factor(M, lower=True)
    except LinAlgError as exc:  # pragma: no cover - requires an invalid spec
        raise NumericalBreakdown(f"Cholesky of A + {rho}*I failed") from exc
    e = np.ones(n)
    s = cho_solve(chol, e)
    t = cho_solve(chol, spec.tau * spec.mu)
    ets = float(e @ s)
    if ets <= 0:  # pragma: no cover - impossible for SPD matrices
        raise NumericalBreakdown("e'(A+rho I)^{-1}e is not positive")
    return PenaltyFactorization(rho=float(rho), chol=chol, s=s, t=t, ets=ets)


def x_step(fact: PenaltyFactorization, spec: ProblemSpec, y: np.ndarray) -> np.ndarray:
    """Unique minimizer of q_rho(., y) over {e'x = 1}, in closed form."""
    # the factor was checked once by cho_factor; skip the per-step finiteness scan
    u = fact.t + cho_solve(fact.chol, 2.0 * fact.rho * np.asarray(y, dtype=float),
                           check_finite=False)
    beta_term = (1.0 - 0.5 * float(np.sum(u))) / (0.5 * fact.ets)
    x = 0.5 * (u + beta_term * fact.s)
    # pin e'x = 1 against round-off
    x += (1.0 - x.sum()) / x.size
    return x


def y_step(x: np.ndarray, k: int) -> np.ndarray:
    """Clamp negatives, keep the k largest entries (ties: lowest index), zero the rest.

    Globally minimizes ||x - y||_2^2 over {y >= 0, ||y||_0 <= k}.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    xp = np.maximum(x, 0.0)
    if k >= n:
        return xp
    # threshold at the k-th largest clamped value; resolve boundary ties by index
    kth = np.partition(xp, n - k)[n - k]
    keep = xp > kth
    short = k - int(keep.sum())
    if short > 0:
        ties = np.flatnonzero(xp == kth)[:short]
        keep[ties] = True
    y = np.zeros(n)
    y[keep] = xp[keep]
    return y


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.abs(new - old).max() / max(np.abs(new).max(), 1.0))


def bcd_inner(
    spec: ProblemSpec,
    rho: float,
    y0: np.ndarray,
    cfg: SolverConfig,
    fact: PenaltyFactorization | None = None,
):
    """Alternate x/y steps at fixed rho until the relative-change rule fires.

    Returns (x, y, iterations, q_trace, converged). q_trace is checked
    non-increasing; an increase beyond round-off is an implementation bug.
    """
    if fact is None:
        fact = build_factorization(spec, rho)
    y = np.asarray(y0, dtype=float).copy()
    x = None
    q_trace: list[float] = []
    converged = False
    iterations = 0
    for _ in range(cfg.max_inner):
        x_new = x_step(fact, spec, y)
        y_new = y_step(x_new, spec.k)
        iterations += 1
        q = penalty_q(spec, rho, x_new, y_new)
        if q_trace and q > q_trace[-1] + MONOTONE_TOL * (1.0 + abs(q)):
            raise MonotonicityViolation(
                f"q increased from {q_trace[-1]:.12e} to {q:.12e} at rho={rho}"
            )
        q_trace.append(q)
        if x is not None:
            delta = max(_relative_change(x_new, x), _relative_change(y_new, y))
            if delta <= cfg.eps_inner:
                x, y = x_new, y_new
                converged = True
                break
        x, y = x_new, y_new
    return x, y, iterations, q_trace, converged


def polish_support(spec: ProblemSpec, support) -> tuple[np.ndarray, float]:
    """Exact solve of the problem restricted to a support: zeros stay hard zeros.

    Primal active-set method (Lawson-Hanson style) for
    min x'A_S x - tau*mu_S'x over {e'x = 1, x >= 0}. Starts at the best
    single-asset vertex (ties: lowest index) and keeps a free set F. Each step
    minimizes over the face {x_i = 0 off F}: a step blocked by a bound moves to
    it and drops that coordinate; at a face minimizer, the zero coordinate with
    the most negative multiplier g_i + beta is released. It stops when none is
    negative, which is the KKT system of this convex problem, so the result is
    its global minimum. A face with a zero-curvature direction (duplicate
    assets, rank-deficient A_S) is crossed along it to the first blocking
    bound. Every step is polynomial in |S|, for any support size.
    """
    support = tuple(sorted(int(i) for i in support))
    if not support:
        raise BadSupport("empty support")
    idx = np.array(support)
    m = idx.size
    H = 2.0 * spec.A[np.ix_(idx, idx)]
    c = spec.tau * spec.mu[idx]
    h_scale = float(np.abs(H).max())
    # round-off level of the gradient and of the reduced Hessian's eigenvalues
    g_tol = 64.0 * m * EPS * (1.0 + h_scale + float(np.abs(c).max()))
    curv_tol = 64.0 * m * EPS * h_scale
    z = np.zeros(m)
    z[int(np.argmin(0.5 * np.diag(H) - c))] = 1.0
    free = z > 0.0
    at_face_min = True
    for _ in range(POLISH_STEPS_PER_ASSET * m):
        g = H @ z - c
        if at_face_min:
            lam = g - g[free].mean()  # g_i + beta, with beta from g_F + beta*e = 0
            lam[free] = 0.0
            i = int(np.argmin(lam))
            if lam[i] >= -g_tol:
                break
            free[i] = True
        F = np.flatnonzero(free)
        Z = np.linalg.qr(np.ones((F.size, 1)), mode="complete")[0][:, 1:]  # basis of e'p = 0
        w, V = np.linalg.eigh(Z.T @ H[np.ix_(F, F)] @ Z)
        a = V.T @ (Z.T @ g[F])
        flat = w <= curv_tol
        if np.abs(a[flat]).max(initial=0.0) > g_tol:
            # zero-curvature descent: f falls linearly along p until a bound blocks
            p = -Z @ (V[:, flat] @ a[flat])
            full = np.inf
        else:
            p = -Z @ (V[:, ~flat] @ (a[~flat] / w[~flat]))  # Newton step to the face minimizer
            full = 1.0
        neg = np.flatnonzero(p < 0.0)
        ratios = z[F[neg]] / -p[neg]
        blocked = ratios.size > 0 and ratios.min() < full
        alpha = ratios.min() if blocked else full
        z[F] = np.maximum(z[F] + alpha * p, 0.0)
        if blocked:
            j = F[neg[int(np.argmin(ratios))]]
            z[j] = 0.0
            free[j] = False
        at_face_min = not blocked
    else:
        raise NumericalBreakdown(f"active-set polish did not terminate on support {support}")
    x = np.zeros(spec.n)
    x[idx] = z
    pos = idx[z > 0.0]
    x[pos] += (1.0 - x.sum()) / pos.size
    return x, objective_f(spec, x)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based).

    v is first shifted by -max(v), which leaves the projection unchanged;
    otherwise a huge top entry cancels in u - css/ind and the result is 0.
    """
    v = v - v.max()
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    rho = np.count_nonzero(u - css / ind > 0)
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def kkt_check(spec: ProblemSpec, x: np.ndarray, support) -> KktCertificate:
    """Certificate of the first-order system on a given support.

    The multiplier that is free off-support is eliminated analytically; beta is
    fit over the strictly positive coordinates, and the nonnegativity
    multipliers are read off the remaining support coordinates.
    """
    support = tuple(sorted(int(i) for i in support))
    if not support:
        raise BadSupport("empty support")
    x = np.asarray(x, dtype=float)
    g = 2.0 * (spec.A @ x) - spec.tau * spec.mu
    pos = [i for i in support if x[i] > ACTIVE_TOL]
    if pos:
        beta = float(-np.mean(g[pos]))
        stationarity = float(np.abs(g[pos] + beta).max())
    else:
        beta = 0.0
        stationarity = 0.0
    lam = np.zeros(spec.n)
    zero_on_support = [i for i in support if x[i] <= ACTIVE_TOL]
    for i in zero_on_support:
        lam[i] = g[i] + beta
    dual_violation = float(max(0.0, -lam.min()))
    complementarity = float(np.abs(lam * x).max())
    return KktCertificate(
        beta=beta,
        lam=lam,
        support=support,
        stationarity_residual=stationarity,
        complementarity_residual=complementarity,
        dual_feasibility_violation=dual_violation,
    )


def dense_simplex_minimizer(spec: ProblemSpec, iters: int = 300,
                            lam_max: float | None = None) -> np.ndarray:
    """Projected-gradient minimizer of f over the full simplex (no sparsity).

    Cheap, deterministic starting point: its top-k entries seed the block
    solvers with a support informed by the dense optimum rather than by mu
    alone.
    """
    if lam_max is None:
        lam_max = max_eigenvalue(spec.A)
    step = 1.0 / (2.0 * lam_max + 1e-12)
    x = np.full(spec.n, 1.0 / spec.n)
    for _ in range(iters):
        g = 2.0 * (spec.A @ x) - spec.tau * spec.mu
        x_new = _project_simplex(x - step * g)
        if np.abs(x_new - x).max() <= 1e-12:
            return x_new
        x = x_new
    return x


def _support_of(y: np.ndarray, k: int) -> tuple[int, ...]:
    nz = tuple(int(i) for i in np.flatnonzero(y != 0.0))
    return nz[:k] if len(nz) > k else nz


def ccmv_pd_solve(spec: ProblemSpec, cfg: SolverConfig | None = None) -> Solution:
    """Full penalty-decomposition solve: schedule, safeguard, polish, certify."""
    t0 = time.perf_counter()
    cfg = cfg or SolverConfig()
    lam_max = validate_problem(spec)

    trace: list[OuterRecord] = []
    rho = cfg.rho0
    rho_floor = lam_max + 1.0
    raised_note = ""
    if rho < rho_floor:
        rho = rho_floor
        raised_note = f"rho0 raised to lambda_max+1 = {rho:.6g}"
        log.info(raised_note)

    x_feas = make_feasible_point(spec)
    y = y_step(dense_simplex_minimizer(spec, lam_max=lam_max), spec.k)
    if y.sum() <= 0.0:
        y = x_feas.copy()

    fact = build_factorization(spec, rho)
    x0 = x_step(fact, spec, y)
    upsilon = max(objective_f(spec, x_feas), penalty_q(spec, rho, x0, y))
    upsilon += cfg.upsilon_slack

    status = STATUS_MAX_ITERATIONS
    safeguard_resets = 0
    x = x0
    for j in range(cfg.max_outer):
        x, y, inner_iters, q_trace, _ = bcd_inner(spec, rho, y, cfg, fact=fact)
        infeas = float(np.abs(x - y).max())
        note = raised_note if j == 0 else ""
        trace.append(OuterRecord(rho=rho, inner_iters=inner_iters,
                                 q=q_trace[-1], infeas=infeas, note=note))
        if infeas <= cfg.eps_outer:
            status = STATUS_CONVERGED
            break
        rho_next = cfg.zeta * rho
        fact = build_factorization(spec, rho_next)
        x_probe = x_step(fact, spec, y)
        if penalty_q(spec, rho_next, x_probe, y) > upsilon:
            y = x_feas.copy()
            safeguard_resets += 1
            trace[-1].note = (trace[-1].note + "; " if trace[-1].note else "") + "safeguard reset"
        rho = rho_next

    support = _support_of(y, spec.k)
    if not support:
        support = _support_of(x_feas, spec.k)
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
        solver="pd",
        safeguard_resets=safeguard_resets,
        wall_time=time.perf_counter() - t0,
        upsilon=upsilon,
    )
