"""Penalty decomposition solver for the k-sparse mean-variance problem.

Seed: the exact minimizer of f over the whole simplex, whose top-k entries
give the first support. Inner loop: block coordinate descent alternating a
closed-form solve over the budget hyperplane {e'x = 1} with a
clamp-and-keep-top-k thresholding step. Outer loop: geometric penalty growth
with a level-set safeguard. The discovered support and the seed's support are
then polished by the same finite primal active-set solve of the convex QP
restricted to a support (exact for any support size); the better result is
returned with a KKT certificate.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, LinAlgError
from scipy.linalg.lapack import dpotrs

from .errors import BadSupport, MeritMismatch, MonotonicityViolation, NumericalBreakdown
from .model import (
    KktCertificate,
    OuterRecord,
    ProblemSpec,
    Solution,
    SolverConfig,
    STATUS_CONVERGED,
    STATUS_MAX_ITERATIONS,
    make_feasible_point,
    max_eigenvalue,  # unused here; benchmark/run.py traces it as pd.max_eigenvalue
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

# A level caches at most n // CACHE_DIVISOR columns of (A + rho I)^{-1}:
# solving them costs at most 2n^3 / CACHE_DIVISOR flops, 1.5 times the level's
# Cholesky (n^3 / 3), and the cache holds at most n^2 / CACHE_DIVISOR floats.
# A level whose k-sparse support cannot fit (k > n // CACHE_DIVISOR) keeps no
# cache: a full backsolve then costs at most CACHE_DIVISOR times the cached product.
CACHE_DIVISOR = 4


@dataclass
class PenaltyFactorization:
    """Cholesky factor of (A + rho*I) plus the solves the x-steps of one level reuse.

    Besides s and t it caches columns (A + rho I)^{-1} e_i, one per index that
    has appeared in the support of an x-step's y. They are solved on first use
    (the missing ones of a call in one batched backsolve) and kept for the
    level, so a k-sparse y costs O(n*k) once its columns are in. The cache
    holds at most n // CACHE_DIVISOR columns; cols is None on a level that
    keeps no cache.
    """

    rho: float
    chol: tuple
    s: np.ndarray      # (A + rho I)^{-1} e
    t: np.ndarray      # (A + rho I)^{-1} (tau * mu)
    ets: float         # e's
    ett: float         # e't
    cols: np.ndarray | None  # row j: (A + rho I)^{-1} e_i for the i with slot[i] == j
    slot: np.ndarray   # row of column i in cols, -1 if not cached

    def support_columns(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """(y_S, rows (A + rho I)^{-1} e_i for i in S) on the support S of y.

        Solves the uncached columns in one batch. Returns None, and caches
        nothing, on a level without a cache or when they do not fit.
        """
        if self.cols is None:
            return None
        S = np.flatnonzero(y)
        missing = S[self.slot[S] < 0]
        if missing.size:
            n, m = self.s.size, self.cols.shape[0]
            if m + missing.size > n // CACHE_DIVISOR:
                return None
            E = np.zeros((n, missing.size))
            E[missing, np.arange(missing.size)] = 1.0
            self.cols = np.vstack([self.cols, self.solve(E).T])
            self.slot[missing] = np.arange(m, m + missing.size)
        return y[S], self.cols[self.slot[S]]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(A + rho I)^{-1} b by one LAPACK potrs call.

        ProblemSpec checked A once; this skips cho_solve's per-call checks,
        which cost several times the backsolve itself at small n.
        """
        c, lower = self.chol
        return dpotrs(c, b, lower=lower)[0]


def build_factorization(spec: ProblemSpec, rho: float) -> PenaltyFactorization:
    """Factor (A + rho*I) once per penalty level, with an empty column cache (or none)."""
    n = spec.n
    M = spec.A.copy()
    M.flat[:: n + 1] += rho
    try:
        # ProblemSpec rejects non-finite A and rho is finite: skip the scan
        chol = cho_factor(M, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:  # pragma: no cover - requires an invalid spec
        raise NumericalBreakdown(f"Cholesky of A + {rho}*I failed") from exc
    s, t = dpotrs(chol[0], np.column_stack((np.ones(n), spec.tau * spec.mu)),
                  lower=chol[1])[0].T
    ets = float(s.sum())
    if ets <= 0:  # pragma: no cover - impossible for SPD matrices
        raise NumericalBreakdown("e'(A+rho I)^{-1}e is not positive")
    cols = np.empty((0, n)) if spec.k <= n // CACHE_DIVISOR else None
    return PenaltyFactorization(rho=float(rho), chol=chol, s=s, t=t, ets=ets,
                                ett=float(t.sum()), cols=cols, slot=np.full(n, -1))


def x_step(fact: PenaltyFactorization, spec: ProblemSpec, y: np.ndarray) -> np.ndarray:
    """Unique minimizer of q_rho(., y) over {e'x = 1}, in closed form.

    u = (A + rho I)^{-1}(tau*mu + 2*rho*y) is t plus the cached columns of y's
    support weighted by 2*rho*y_S, so the cost scales with nnz(y): O(n*nnz(y))
    once the columns are cached. Without a cache, or for a y whose support
    does not fit it (a dense y), it is one full O(n^2) backsolve.
    """
    y = np.asarray(y, dtype=float)
    cached = fact.support_columns(y)
    if cached is None:
        u = fact.t + fact.solve(2.0 * fact.rho * y)
    else:
        yS, W = cached
        u = fact.t + (2.0 * fact.rho * yS) @ W
    beta_term = (1.0 - 0.5 * float(u.sum())) / (0.5 * fact.ets)
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


def _merit(fact: PenaltyFactorization, spec: ProblemSpec, x: np.ndarray,
           y_old: np.ndarray, y: np.ndarray) -> float:
    """q_rho(x, y) in O(n*nnz(y_old)), for x = x_step(fact, spec, y_old).

    With d = x - y_old, the x-step's KKT relation
    (A + rho I)x = (tau*mu + 2*rho*y_old + b*e) / 2 gives
    A d = (tau*mu + b*e) / 2 - rho*d - A y_old, so
    x'Ax = x'A y_old + tau*mu'd/2 + b*e'd/2 - rho*d'd needs A only on the
    support S of y_old. The budget multiplier b follows from e'x = 1 and
    e'(A + rho I)^{-1} = s' in O(|S|). Only the small d is multiplied by rho,
    so the round-off stays near that of penalty_q at large rho.
    """
    S = np.flatnonzero(y_old)
    yS = y_old[S]
    b = (2.0 - fact.ett - 2.0 * fact.rho * fact.s[S].dot(yS)) / fact.ets
    d = x - y_old
    r = x - y
    # y_old'A[S] for A y_old: A is symmetric (to SYM_TOL); tau*mu'd/2 - tau*mu'x
    # is folded into -tau*(mu'x + mu'y_old)/2
    q = (x.dot(yS.dot(spec.A[S])) - 0.5 * spec.tau * (spec.mu.dot(x) + spec.mu[S].dot(yS))
         + 0.5 * b * d.sum() - fact.rho * (d.dot(d) - r.dot(r)))
    return float(q)


def bcd_inner(
    spec: ProblemSpec,
    rho: float,
    y0: np.ndarray,
    cfg: SolverConfig,
    fact: PenaltyFactorization | None = None,
):
    """Alternate x/y steps at fixed rho until the relative-change rule fires.

    Returns (x, y, iterations, q_trace, converged). q_trace holds each
    iteration's q_rho(x, y), evaluated by _merit without a dense A x, and is
    checked non-increasing; an increase beyond round-off is an implementation
    bug. The last entry is checked once against the exact penalty_q of the
    returned pair, which catches a wrong x-step.
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
        q = _merit(fact, spec, x_new, y, y_new)
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
    exact = penalty_q(spec, rho, x, y)
    if abs(exact - q_trace[-1]) > MONOTONE_TOL * (1.0 + abs(exact)):
        raise MeritMismatch(
            f"merit {q_trace[-1]:.12e} != penalty_q {exact:.12e} at rho={rho}"
        )
    return x, y, iterations, q_trace, converged


def _active_set(spec: ProblemSpec, idx: np.ndarray) -> np.ndarray:
    """Minimizer of f over {e'x = 1, x >= 0, x_i = 0 off idx}, as a length-n vector.

    Primal active-set method (Lawson & Hanson, Solving Least Squares Problems,
    1974, ch. 23) for min z'H z/2 - c'z with H = 2*A_idx and c = tau*mu_idx.
    Starts at the best single-asset vertex (ties: lowest index) and keeps a
    free set F. Each step minimizes over the face {z_i = 0 off F}: a step
    blocked by a bound moves to it and drops that coordinate; at a face
    minimizer, the zero coordinate with the most negative multiplier
    g_i + beta is released. It stops when none is negative, which is the KKT
    system of this convex problem, so the result is its global minimum. A face
    with a zero-curvature direction (duplicate assets, rank-deficient A_idx)
    is crossed along it to the first blocking bound.

    z is zero off F, so the gradient needs only the |F| rows of A on F, and
    the face needs only its |F| x |F| block: a step costs O(n*|F| + |F|^3),
    whatever the size of idx.
    """
    A = spec.A
    m = idx.size
    d = 2.0 * A[idx, idx]
    c = spec.tau * spec.mu[idx]
    # A is PSD, so the largest |H_ij| sits on the diagonal
    h_scale = float(np.abs(d).max())
    # round-off level of the gradient and of the reduced Hessian's eigenvalues
    g_tol = 64.0 * m * EPS * (1.0 + h_scale + float(np.abs(c).max()))
    curv_tol = 64.0 * m * EPS * h_scale
    z = np.zeros(m)
    z[int(np.argmin(0.5 * d - c))] = 1.0
    free = z > 0.0
    at_face_min = True
    for _ in range(POLISH_STEPS_PER_ASSET * m):
        F = np.flatnonzero(free)
        g = 2.0 * (z[F] @ A[idx[F]])[idx] - c  # A_idx,F z_F from rows of the symmetric A
        if at_face_min:
            lam = g - g[F].mean()  # g_i + beta, with beta from g_F + beta*e = 0
            lam[F] = 0.0
            i = int(np.argmin(lam))
            if lam[i] >= -g_tol:
                break
            free[i] = True
            F = np.flatnonzero(free)
        Z = np.linalg.qr(np.ones((F.size, 1)), mode="complete")[0][:, 1:]  # basis of e'p = 0
        w, V = np.linalg.eigh(Z.T @ (2.0 * A[np.ix_(idx[F], idx[F])]) @ Z)
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
        raise NumericalBreakdown(f"active-set solve did not terminate on {m} assets")
    x = np.zeros(spec.n)
    x[idx] = z
    pos = idx[z > 0.0]
    x[pos] += (1.0 - x.sum()) / pos.size
    return x


def polish_support(spec: ProblemSpec, support) -> tuple[np.ndarray, float]:
    """Exact solve of the problem restricted to a support: zeros stay hard zeros.

    Returns (x, f(x)) for the global minimizer x of the convex QP
    min x'Ax - tau*mu'x over {e'x = 1, x >= 0, x_i = 0 off the support}, found
    by the finite active-set kernel _active_set. Each of its steps costs
    O(n*|F| + |F|^3) on its free set F, for any support size.
    """
    support = tuple(sorted(int(i) for i in support))
    if not support:
        raise BadSupport("empty support")
    x = _active_set(spec, np.array(support))
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


def dense_simplex_minimizer(spec: ProblemSpec) -> np.ndarray:
    """Exact minimizer of f over the full simplex (no sparsity).

    The active-set kernel on every index: its top-k entries seed the block
    solvers with a support informed by the dense optimum rather than by mu
    alone. A simplex point keeps its largest entry in its top-k, so the seed
    is never empty.
    """
    return _active_set(spec, np.arange(spec.n))


def _support_of(y: np.ndarray, k: int) -> tuple[int, ...]:
    nz = tuple(int(i) for i in np.flatnonzero(y != 0.0))
    return nz[:k] if len(nz) > k else nz


def ccmv_pd_solve(spec: ProblemSpec, cfg: SolverConfig | None = None) -> Solution:
    """Full penalty-decomposition solve: schedule, safeguard, polish, certify.

    Returns the better of the polished final support and the polished top-k
    of the exact dense seed (the final polish on a tie).
    """
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
    y = y_step(dense_simplex_minimizer(spec), spec.k)
    incumbent = polish_support(spec, _support_of(y, spec.k))

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
    if incumbent[1] < objective:
        weights, objective = incumbent
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
