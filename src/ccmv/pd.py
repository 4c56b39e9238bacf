"""Penalty decomposition solver for the k-sparse mean-variance problem.

Seed: the exact minimizer of f over the whole simplex, whose top-k entries
give the first support, found by the active-set kernel of the polish. For a
covariance in factor form with d > 0, Newton steps on the seed's dual, which
has m + 1 variables, find its free set and a point on it; when that point
passes the kernel's own optimality tests (one product with A), it is the
seed and the kernel does not run, else the kernel starts there. Any other
covariance starts the kernel cold. A seed with at most k nonzeros is
feasible, and so globally optimal: the polish of its support is the answer,
returned before any penalty level. Otherwise penalty_loop runs the levels
from the seed's top-k. Inner loop: block coordinate descent
alternating a closed-form solve over the budget hyperplane {e'x = 1} with a
clamp-and-keep-top-k thresholding step; every iteration's q_rho(x, y) is
one penalty_q, checked non-increasing. Once the support S of y stops
changing, q_rho restricted to {e'x = 1, y = x on S, y = 0 off S} is a convex
quadratic, and the descent jumps to its minimizer (the saddle point of the
penalty subproblem on S) in closed form from the level's solves with
A + rho*I, rather than approaching it one step at a time. Outer loop:
geometric penalty growth with a level-set safeguard. rho starts at
lambda_max + 1 or above, so A + rho*I has condition number at most
1 + lambda_max / rho. Every level needs (A + rho*I)^{-1} only on e, tau*mu
and vectors that are zero off the support, and the block
[A (A + rho*I)^{-1}]_SS of the support, and takes them from the spec's
operator (spec.cov.shifted_solver): a dense A is factored by Cholesky once
per level, and each sparse solve is one backsolve; a covariance in
factor form, A = G G' + diag(d) with G n x m and m small beside n
(model.FACTOR_RANK_RATIO), is never formed: every level solves by Woodbury
from one m x m Cholesky (of a capacitance taken, for a constant d, from the
one G'G that also gave lambda_max), a k-sparse solve costs O(n*m) and the
support's block O(k*m^2). A level keeps no state from one solve to the
next. It is prepared only when it runs; its first x-step, taken for upsilon
or for the safeguard's probe, is also the descent's first and is not
repeated.
The seed's support (always) and the discovered support (when it differs)
are polished by the same finite primal active-set solve of the
convex QP restricted to a support (exact for any support size), which keeps
a Cholesky factor of its reduced Hessian and extends it by one row as an
index enters; the final support's polish starts from the last y, the
seed's cold. The kernel reads rows through spec.cov.row_reader and sets up
every start, a given one or the best single-asset vertex, by the same code.
The better result is returned with a KKT certificate.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import BadSupport, MeritMismatch, MonotonicityViolation, NumericalBreakdown
from .model import (
    CholeskyLevel,
    KktCertificate,
    OuterRecord,
    ProblemSpec,
    Solution,
    SolverConfig,
    STATUS_CONVERGED,
    STATUS_MAX_ITERATIONS,
    WoodburyLevel,
    _check_dim,
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
# before we declare a bug; the x-step after a jump may differ from the jump's
# x by at most this relative change.
MONOTONE_TOL = 1e-9

EPS = float(np.finfo(float).eps)

# Iteration guard of polish_support: each active-set step adds or drops one
# coordinate, and in practice it ends within a few passes over the support.
POLISH_STEPS_PER_ASSET = 50

# Newton steps on the dense seed's dual (_dual_start) before the kernel starts
# cold. The guess settles in 6-12 steps on factor_model_instance(1000, 10) and
# in 12-13 at n = 2000; an ill-conditioned dual would not settle in 50.
DUAL_STEPS = 20
# Armijo's sufficient-ascent fraction, and the shortest step before a line
# search counts as stalled: the first step from nu = 0 is the shortest, 2^-6 to
# 2^-4 on factor_model_instance at n = 226, 1000 and 2000; the ill-conditioned
# dual of a d far below G G' needs 2^-19 or less.
DUAL_ARMIJO = 1e-4
DUAL_MIN_STEP = 2.0 ** -8
# A cold kernel releases about one asset for each two steps of 50-60 us at
# n = 1000, and the dual costs about 1.5-2.5 ms whatever the free set. With
# fewer than this many negative multipliers at the best vertex (large tau) the
# cold free set stayed small, and the cold start was the faster one; the
# measured break-even lay near 100-200 negative multipliers at n = 226, 1000
# and 2000.
DUAL_MIN_RELEASABLE = 128


@dataclass
class PenaltyFactorization:
    """The solves with (A + rho*I) that the x-steps and jumps of one penalty level reuse.

    level is the level's solver, spec.cov.shifted_solver(rho): a
    model.CholeskyLevel or model.WoodburyLevel, with solve(B), the row solve
    B -> B (A + rho I)^{-1}; sparse(S, v), (A + rho I)^{-1} applied to a
    vector that is v on S and zero off it; and coupling(S), the
    block [A (A + rho I)^{-1}]_SS. s and t are the two full solves every
    step reuses. A level carries its own rho: bcd_inner, x_step and
    _saddle_point take the level alone.
    """

    rho: float
    level: CholeskyLevel | WoodburyLevel  # spec.cov.shifted_solver(rho)
    s: np.ndarray      # (A + rho I)^{-1} e
    t: np.ndarray      # (A + rho I)^{-1} (tau * mu)
    ets: float         # e's
    ett: float         # e't
    jumps: int = 0     # jumps accepted by the level's bcd_inner


def build_factorization(spec: ProblemSpec, rho: float) -> PenaltyFactorization:
    """The solves of one penalty level: spec.cov.shifted_solver(rho), s and t.

    A dense A is factored once, n^3 / 3 flops; a factor form costs an m x m
    Cholesky of its capacitance, formed in O(m^2) from the operator's one G'G
    for a constant d and by an O(n*m^2) product otherwise, with no n x n
    array. Neither changes as it is used. s and t come from one solve of the
    rows e and tau*mu.
    """
    rho = float(rho)
    level = spec.cov.shifted_solver(rho)
    s, t = level.solve(np.vstack((np.ones(spec.n), spec.tau * spec.mu)))
    ets = float(s.sum())
    if ets <= 0:  # pragma: no cover - impossible for SPD matrices
        raise NumericalBreakdown("e'(A+rho I)^{-1}e is not positive")
    return PenaltyFactorization(rho=rho, level=level, s=s, t=t, ets=ets, ett=float(t.sum()))


def x_step(fact: PenaltyFactorization, y: np.ndarray) -> np.ndarray:
    """Unique minimizer of q_rho(., y) over {e'x = 1}, in closed form, for the level fact.

    u = (A + rho I)^{-1}(tau*mu + 2*rho*y) is t plus one sparse solve of
    2*rho*y on y's support S: O(|S|*m + n*m) in factor form, one O(n^2)
    backsolve for a dense A.
    """
    y = np.asarray(y, dtype=float)
    S = np.flatnonzero(y)
    u = fact.t + fact.level.sparse(S, 2.0 * fact.rho * y[S])
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


def relative_change(new: np.ndarray, old: np.ndarray) -> float:
    """max|new - old| / max(max|new|, 1), the step size both solvers' inner loops stop on."""
    return float(np.abs(new - old).max() / max(np.abs(new).max(), 1.0))


def _saddle_point(fact: PenaltyFactorization, S: np.ndarray) -> np.ndarray | None:
    """Minimizer x of q_rho over {e'x = 1, y = x on S, y = 0 off S} at the level fact; None if singular.

    There q_rho(x, y) = x'(A + rho I - rho E_S E_S')x - tau*mu'x, a convex
    quadratic whose minimizer solves (A + rho I - rho E_S E_S')x =
    (tau*mu - b*e)/2 with e'x = 1. Woodbury on the level's factorization:
    multiplying by (A + rho I)^{-1}, as in the x-step, gives
    x = t/2 - beta*s + rho*(A + rho I)^{-1} E_S x_S (beta = b/2), one sparse
    solve of the level, so x_S and beta solve the (|S|+1)-row system, scaled
    by rho,

        [P   u  ] [x_S ]   [rho*t_S/2]
        [u' -e's] [beta] = [1 - e't/2]

    with u = rho*s_S and P = rho*[A (A + rho I)^{-1}]_SS, the level's coupling
    block times rho. That is rho^2 times Woodbury's capacitance
    I/rho - [(A + rho I)^{-1}]_SS, but formed without cancellation at large
    rho: for a dense A as A[S] times the columns of S, for a factor form as a
    sum of PSD terms. There, P is about A_SS and u about e_S. The budget
    direction u and the rest of the support are solved apart, in the orthonormal basis
    [q, Z] = Q of the Householder reflector Q that maps u onto its first
    axis: Z'PZ carries A_SS's curvature on the face and the 2 x 2 Schur
    system in (x_S along q, beta) carries the budget, so neither scale swamps
    the other, however large rho or tau*mu is beside A. Z'PZ is solved by
    its Cholesky factor. No new factorization of the level: P costs
    O(n*|S|^2) for a dense A and O(|S|*m^2) in factor form, the reflection
    and the factor O(|S|^3), and x one sparse solve. Z'PZ singular to
    round-off, a Cholesky pivot at most |S|*EPS times P's largest diagonal
    entry (duplicate assets, a flat face of A_SS), gives None.
    """
    rho = fact.rho
    P = rho * fact.level.coupling(S)
    P = 0.5 * (P + P.T)
    u = rho * fact.s[S]
    r1 = 0.5 * rho * fact.t[S]
    r2 = 1.0 - 0.5 * fact.ett
    nu = -np.copysign(np.linalg.norm(u), u[0])  # Qu = nu*e_0, so q'u = nu and Z'u = 0
    h = u.copy()
    h[0] -= nu
    Q = np.eye(S.size) - (2.0 / (h @ h)) * np.outer(h, h)
    QPQ = Q @ P @ Q
    Qr1 = Q @ r1
    ZPq = QPQ[1:, 0]
    v0 = v1 = np.zeros(0)  # Z is empty for |S| = 1
    if S.size > 1:
        L, info = dpotrf(QPQ[1:, 1:], lower=1)
        if info or np.diag(L).min() ** 2 <= S.size * EPS * np.abs(np.diag(P)).max():
            return None
        # x_S = q*alpha + Z(v0 - v1*alpha), from the Z rows
        v0, v1 = dpotrs(L, np.column_stack((Qr1[1:], ZPq)), lower=1)[0].T
    # q row and budget row: [a11 nu; nu -e's] [alpha; beta] = [b1; r2]
    a11 = float(QPQ[0, 0] - ZPq @ v1)
    b1 = float(Qr1[0] - ZPq @ v0)
    det = -a11 * fact.ets - nu * nu  # < 0: a11 >= 0 is a Schur complement of PSD P
    alpha = (-fact.ets * b1 - nu * r2) / det
    beta = (a11 * r2 - nu * b1) / det
    xS = Q @ np.concatenate(([alpha], v0 - v1 * alpha))
    x = 0.5 * fact.t - beta * fact.s + rho * fact.level.sparse(S, xS)
    x += (1.0 - x.sum()) / x.size
    return x


def _jump(fact: PenaltyFactorization, spec: ProblemSpec, S: np.ndarray,
          tried: set[bytes], q_last: float):
    """(x*, S, q*) for the saddle point on S, or None to take the plain step.

    Support indices where x* is nonpositive are dropped and the smaller
    support is solved again. The candidate is accepted only when
    q* = q_rho(x*, y*) < q_last for y* = x* on S, zero off it: a jump that
    does not lower q would only add two iterations. Each support is tried at
    most once per level.
    """
    while S.size and S.tobytes() not in tried:
        tried.add(S.tobytes())
        x = _saddle_point(fact, S)
        if x is None:
            return None
        pos = x[S] > 0.0
        if pos.all():
            y = np.zeros(spec.n)
            y[S] = x[S]
            q = penalty_q(spec, fact.rho, x, y)
            return (x, S, q) if q < q_last else None
        S = S[pos]
    return None


def bcd_inner(
    spec: ProblemSpec,
    fact: PenaltyFactorization,
    y0: np.ndarray,
    cfg: SolverConfig,
    x0: np.ndarray | None = None,
):
    """Alternate x/y steps on the level fact, at its rho, until the relative-change rule fires.

    x0, if given, must be x_step(fact, y0), which the caller has already
    computed; it is taken as the first iteration's x-step rather than solved
    again. penalty_loop passes each level's first x-step this way.

    Once an iteration leaves the support S of y unchanged, the next one takes
    the saddle point of the level restricted to S (_saddle_point): the BCD
    fixed point that the x/y steps would otherwise approach one small step at
    a time. This jump replaces that iteration's x-step; its y-step and
    monotonicity check are as usual, and fact.jumps counts the accepted
    jumps. When the y-step keeps the jump's support S, it returns y* bit for
    bit, and the q that _jump accepted is the iteration's q. The stopping
    rule is tested only on an x-step iteration that keeps the support and
    finds no jump, so a converged level ends on an x-step.

    Returns (x, y, iterations, q_trace, converged). q_trace holds each
    iteration's penalty_q(x, y), one product with A (O(n*m) in factor form;
    none more after a jump whose y-step kept S), and is checked
    non-increasing; an increase beyond round-off is an implementation bug.
    The x-step after a jump whose y-step kept S must reproduce the jump
    (MeritMismatch otherwise); with the monotonicity check, it catches a
    wrong x-step.
    """
    y = np.asarray(y0, dtype=float).copy()
    x = None
    q_trace: list[float] = []
    converged = False
    iterations = 0
    tried: set[bytes] = set()
    jump = None     # (x*, S, q*) taken in place of the next x-step
    confirm = False  # y is the jump's y*, so the next x-step must return x* = x
    for _ in range(cfg.max_inner):
        iterations += 1
        if jump is None:
            if x0 is None:
                x_new = x_step(fact, y)
            else:
                x_new, x0 = x0, None
            if confirm and relative_change(x_new, x) > MONOTONE_TOL:
                raise MeritMismatch(f"x-step does not reproduce the jump at rho={fact.rho}")
        else:
            x_new, S_jump, q_jump = jump
        y_new = y_step(x_new, spec.k)
        S = np.flatnonzero(y_new)
        confirm = jump is not None and np.array_equal(S, S_jump)
        q = q_jump if confirm else penalty_q(spec, fact.rho, x_new, y_new)
        if q_trace and q > q_trace[-1] + MONOTONE_TOL * (1.0 + abs(q)):
            raise MonotonicityViolation(
                f"q increased from {q_trace[-1]:.12e} to {q:.12e} at rho={fact.rho}"
            )
        q_trace.append(q)
        if jump is not None:
            jump = None
        elif np.array_equal(S, np.flatnonzero(y)):
            jump = _jump(fact, spec, S, tried, q)
            if jump is not None:
                fact.jumps += 1
            elif x is not None:
                delta = max(relative_change(x_new, x), relative_change(y_new, y))
                if delta <= cfg.eps_inner:
                    x, y = x_new, y_new
                    converged = True
                    break
        x, y = x_new, y_new
    return x, y, iterations, q_trace, converged


def _gradient_tol(h: np.ndarray, c: np.ndarray) -> float:
    """Round-off level of the kernel's gradient H z - c on the simplex, for H's diagonal h.

    H is PSD, so its largest entry sits on its diagonal.
    """
    return 64.0 * h.size * EPS * (1.0 + float(np.abs(h).max()) + float(np.abs(c).max()))


def _curvature_tol(h: np.ndarray) -> float:
    """Round-off level of the kernel's curvature along a unit direction, for its Hessian's diagonal h.

    H is PSD, so its largest entry sits on its diagonal.
    """
    return 64.0 * h.size * EPS * float(np.abs(h).max())


def _starting_face(H: np.ndarray, F: np.ndarray, nf: int, curv_tol: float) -> tuple[np.ndarray, bool]:
    """(L, usable) for a starting face: _face_factor's L, and whether the kernel may start there.

    A face whose factorization fails, or has a pivot at round-off (duplicate
    assets), is not used. A vertex's face, one asset, always is.
    """
    if nf == 1:  # a vertex: M is the identity
        return np.ones((1, 1)), True
    L, info = _face_factor(H, F, nf)
    return L, not info and np.diag(L)[1:].min() ** 2 > nf * curv_tol


def _face_factor(H: np.ndarray, F: np.ndarray, nf: int) -> tuple[np.ndarray, int]:
    """dpotrf's (L, info) for M = Z'H_FF Z on the face of the first nf entries of F.

    Row r of H is row F[r] of the kernel's Hessian; row and column 0 of M, the
    anchor F[0]'s own slot, vanish and are set to the identity.
    """
    Hf = H[:nf, F[:nf]]
    M = Hf - Hf[:, :1] - Hf[:1] + Hf[0, 0]
    M[0, 0] = 1.0
    return dpotrf(M, lower=1, clean=1)


def _active_set(spec: ProblemSpec, idx: np.ndarray, start=None) -> tuple[np.ndarray, int, bool]:
    """Minimizer of f over {e'x = 1, x >= 0, x_i = 0 off idx}: (x, steps, warm).

    x is a length-n vector, steps the kernel's steps, and warm tells whether
    it ran from the given start.

    Primal active-set method (Lawson & Hanson, Solving Least Squares Problems,
    1974, ch. 23) for min z'H z/2 - c'z with H = 2*A_idx and c = tau*mu_idx.
    It keeps a free set F and a feasible z that is zero off F. Each step
    minimizes over the face {z_i = 0 off F}: a step blocked by a bound moves
    to it and drops that coordinate; at a face minimizer, the zero coordinate
    with the most negative multiplier g_i + beta is released. It stops when
    none is negative, which is the KKT system of this convex problem, so the
    result is its global minimum. A face with a zero-curvature direction
    (duplicate assets, rank-deficient A_idx) is crossed along it to the first
    blocking bound.

    start = (F0, z0) is the starting free set and point: F0 distinct
    positions in idx and z0, of length |idx|, a point of the simplex that is
    zero off F0. A primal active-set method may start from any feasible point
    and any free set that holds its support, so the result is the same global
    minimum. The kernel reads the rows of F0 in one call of the operator's
    row_reader, factors the face once and, unless F0 is a single asset (a
    vertex is its face's minimizer), first steps towards the face minimizer
    from z0. No start, or a starting face whose factorization fails or has a
    pivot at round-off (duplicate assets), is the cold start ([j], e_j) at
    the best single-asset vertex j (ties: lowest index), set up by the same
    code.

    A face is solved in the anchor basis Z = [e_j - e_a] of {e'p = 0}, with
    a the first entry of F, through the lower Cholesky factor L of
    M = Z'H_FF Z. Row and column 0 of M, the anchor's own slot, are zero and
    are kept as the identity, so L is never empty, and p_a = -(sum of the
    other entries of p). A release appends one row to L from one triangular
    solve; its pivot is the curvature along the face's new direction, so a
    zero-curvature direction shows there. A drop refactors the smaller face.
    z is zero off F, so the gradient needs only the rows of H on F, each
    read once, at the start or when its index is released (O(|idx|*m) for a
    factor form of rank m). A step costs O(|idx|*|F| + |F|^2), and a drop
    O(|F|^3) more. idx holds distinct indices.
    """
    m = idx.size
    d = 2.0 * spec.cov.diag(idx)
    c = spec.tau * spec.mu[idx]
    # round-off level of the gradient and of the curvature of M along a unit p
    g_tol = _gradient_tol(d, c)
    curv_tol = _curvature_tol(d)
    rows = spec.cov.row_reader(idx)  # rows(J) = A[idx[J]][:, idx]
    j = int(np.argmin(0.5 * d - c))
    vertex = (np.array([j]), np.eye(1, m, j)[0])  # ([j], e_j), the best single-asset vertex
    warm = start is not None
    F = np.empty(m, dtype=np.intp)  # free positions in idx, in the order of H's rows
    for F0, z0 in (start, vertex) if warm else (vertex,):
        nf = F0.size
        F[:nf] = F0
        H = 2.0 * rows(F[:nf])  # row r: row F[r] of H = 2*A_idx; grows by doubling, 16 rows at least
        L, usable = _starting_face(H, F, nf, curv_tol)
        if usable:
            break
        warm = False
    z = np.array(z0, dtype=float)
    pbuf = np.empty(m)  # a release's direction on the face, p = pbuf[:nf]
    at_face_min = nf == 1  # a vertex is its own face's minimizer
    for steps in range(1, POLISH_STEPS_PER_ASSET * m + 1):
        g = z[F[:nf]] @ H[:nf] - c
        newton = True
        if at_face_min:
            lam = g - g[F[:nf]].sum() / nf  # g_i + beta, with beta from g_F + beta*e = 0
            lam[F[:nf]] = 0.0
            i = int(np.argmin(lam))
            if lam[i] >= -g_tol:
                break
            if nf == H.shape[0]:
                H = np.vstack((H, np.empty((min(max(nf, 16), m - nf), m))))
            a = F[0]
            F[nf] = i
            H[nf:nf + 1] = 2.0 * rows(F[nf:nf + 1])
            w = dtrtrs(L, H[:nf, i] - H[:nf, a] - H[0, i] + H[0, a], lower=1)[0]
            pivot = d[i] - 2.0 * H[0, i] + H[0, a] - w @ w
            # the face's new direction with least curvature (pivot); f falls along it at lam_i
            pbuf[:nf] = -dtrtrs(L, w, lower=1, trans=1)[0]
            pbuf[nf] = 1.0
            nf += 1
            p = pbuf[:nf]
            p[0] = -p.sum()
            newton = pivot > curv_tol * (p @ p)
            if newton:
                L_new = np.zeros((nf, nf), order="F")
                L_new[:-1, :-1], L_new[-1, :-1], L_new[-1, -1] = L, w, np.sqrt(pivot)
                L = L_new
        Fv = F[:nf]
        if newton:  # to the face minimizer
            p = -dpotrs(L, g[Fv] - g[Fv[0]], lower=1)[0]
            p[0] = -p.sum()
        full = 1.0 if newton else np.inf
        neg = np.flatnonzero(p < 0.0)
        ratios = z[Fv[neg]] / -p[neg]
        blocked = ratios.size > 0 and ratios.min() < full
        alpha = ratios.min() if blocked else full
        z[Fv] = np.maximum(z[Fv] + alpha * p, 0.0)
        if blocked:
            j = neg[int(np.argmin(ratios))]
            z[F[j]] = 0.0
            nf -= 1
            F[j], H[j] = F[nf], H[nf]
            # in exact arithmetic the smaller face is positive definite: it is
            # part of a positive definite face, or, after a flat step, it lost
            # the flat direction with the blocking index
            L, info = _face_factor(H, F, nf)
            if info:
                raise NumericalBreakdown(f"reduced Hessian of a {nf}-asset face is not positive definite")
        at_face_min = not blocked
    else:
        raise NumericalBreakdown(f"active-set solve did not terminate on {m} assets")
    x = np.zeros(spec.n)
    x[idx] = z
    pos = idx[z > 0.0]
    x[pos] += (1.0 - x.sum()) / pos.size
    return x, steps, warm


def _support_indices(spec: ProblemSpec, support) -> np.ndarray:
    """A support's sorted distinct indices.

    BadSupport if it is empty, or names an index that is not an integer (a
    bool or a string included) or lies outside [0, n). A numpy integer names
    its asset, and so does an integral float: 1.0 names asset 1.
    """
    support = list(support)
    odd = [i for i in support
           if isinstance(i, (bool, np.bool_, str)) or not float(i).is_integer()]
    if odd:
        raise BadSupport(f"support indices {odd} not integers")
    idx = np.array(sorted({int(i) for i in support}), dtype=np.intp)
    if not idx.size:
        raise BadSupport("empty support")
    bad = idx[(idx < 0) | (idx >= spec.n)]
    if bad.size:
        raise BadSupport(f"support indices {bad.tolist()} outside [0, {spec.n})")
    return idx


def polish_support(spec: ProblemSpec, support, x0: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Exact solve of the problem restricted to a support: zeros stay hard zeros.

    Returns (x, f(x)) for the global minimizer x of the convex QP
    min x'Ax - tau*mu'x over {e'x = 1, x >= 0, x_i = 0 off the support} (an
    index listed twice counts once, one that is not an integer or lies
    outside [0, n) is BadSupport), found by the finite active-set kernel
    _active_set. On its free set F, a step costs O(|S|*|F| + |F|^2) from a
    Cholesky factor updated as an index enters, and a drop O(|F|^3) more, for
    any support size |S|. f(x) is one objective_f, a product with A.

    x0, a length-n point (BadDimension otherwise) such as the iterate whose
    support is polished, starts the kernel warm: its positive entries on the
    support, rescaled to sum 1, are the start's free set and point. With
    fewer than two of them it is ignored, since the cold kernel starts at a
    vertex anyway. The minimum is the same from any start; only round-off
    and, where it is not unique, the minimizer may differ.
    """
    idx = _support_indices(spec, support)
    start = None
    if x0 is not None:
        z0 = np.maximum(_check_dim(spec, x0, "x0")[idx], 0.0)
        F0 = np.flatnonzero(z0)
        if F0.size >= 2:
            start = (F0, z0 / z0.sum())
    x = _active_set(spec, idx, start)[0]
    return x, objective_f(spec, x)


def kkt_check(spec: ProblemSpec, x: np.ndarray, support) -> KktCertificate:
    """Certificate of the first-order system on a given support.

    The support is read as polish_support reads it (an index listed twice
    counts once; BadSupport for one that is not an integer or lies outside
    [0, n)), and an x whose length is not n is BadDimension. The multiplier
    that is free off-support is eliminated analytically; beta is fit over the
    strictly positive coordinates, and the nonnegativity multipliers are read
    off the remaining support coordinates.
    """
    idx = _support_indices(spec, support)
    x = _check_dim(spec, x, "x")
    g = 2.0 * spec.cov.matvec(x) - spec.tau * spec.mu
    pos = idx[x[idx] > ACTIVE_TOL]
    if pos.size:
        beta = float(-np.mean(g[pos]))
        stationarity = float(np.abs(g[pos] + beta).max())
    else:
        beta = 0.0
        stationarity = 0.0
    lam = np.zeros(spec.n)
    zero_on_support = idx[x[idx] <= ACTIVE_TOL]
    lam[zero_on_support] = g[zero_on_support] + beta
    dual_violation = float(max(0.0, -lam.min()))
    complementarity = float(np.abs(lam * x).max())
    return KktCertificate(
        beta=beta,
        lam=lam,
        support=tuple(idx.tolist()),
        stationarity_residual=stationarity,
        complementarity_residual=complementarity,
        dual_feasibility_violation=dual_violation,
    )


def _water_fill(c: np.ndarray, w: np.ndarray) -> float:
    """The beta with sum_i max(0, c_i - beta) * w_i = 1, for w > 0.

    With the c_i in decreasing order, beta_p = (sum_{i <= p} c_i w_i - 1) /
    sum_{i <= p} w_i solves it if the top p terms are the positive ones, that
    is if c_p > beta_p; beta is the beta_p of the largest such p. p = 1
    always qualifies in exact arithmetic; when round-off hides 1/w_1 beside
    c_1, beta_1 = c_1 is returned, and no term is positive.
    """
    order = np.argsort(-c)
    cs, ws = c[order], w[order]
    betas = (np.cumsum(cs * ws) - 1.0) / np.cumsum(ws)
    above = np.flatnonzero(cs > betas)
    return float(betas[above[-1] if above.size else 0])


def _dual_start(spec: ProblemSpec) -> tuple[tuple | None, int, str]:
    """A warm start (F0, z0) for the seed's kernel from its dual: (start, Newton steps, reason).

    For A = G G' + diag(d) with d > 0, the seed's problem has the concave,
    once differentiable dual in (nu, beta), m + 1 variables,

        q(nu, beta) = -nu'nu/4 - sum_i r_i^2 / (4 d_i) - beta,
        r = max(0, c - G nu - beta), c = tau*mu,

    whose maximizer gives the seed x = r / (2 d). Semismooth Newton steps
    (Qi & Sun, Math. Prog. 58, 1993) with an Armijo search maximize it from
    nu = 0 and the water-filling beta of the diagonal part. On the set P of
    r > 0 the generalized Hessian is -(diag(I, 0)/2 + B' D_P^{-1} B / 2) with
    B = [G_P, e_P]: one (m + 1) x (m + 1) Cholesky, and a step costs
    O(n*m + |P|*m^2 + m^3). Once a full step keeps P, the step was exact on
    the dual's quadratic piece, and P with x / e'x (feasible, zero off P) is
    the start.

    No start, and the reason, for a dense covariance; for a d with a zero
    entry, whose term of q becomes the constraint c_i - G_i nu - beta <= 0;
    when fewer than DUAL_MIN_RELEASABLE multipliers are negative at the best
    single-asset vertex, the kernel's cold start (none: it prices optimal; a
    few: large tau, a small free set the cold kernel reaches faster), priced
    from that vertex's row of spec.cov.row_reader; when a line search stalls
    (an ill-conditioned dual, as for a d far below G G'); or when DUAL_STEPS
    Newton steps do not settle P.
    """
    cov = spec.cov
    if not cov.factored:
        return None, 0, "dense covariance"
    G, d = cov.G, cov.d
    if not d.min() > 0.0:
        return None, 0, "zero in d"
    n, m = G.shape
    c = spec.tau * spec.mu
    # the kernel's first pricing, at its cold start
    h = 2.0 * cov.diag(np.arange(n))
    j = int(np.argmin(0.5 * h - c))
    g = 2.0 * cov.row_reader(np.arange(n))(np.array([j]))[0] - c
    releasable = int(np.count_nonzero(g - g[j] < -_gradient_tol(h, c)))
    if releasable < DUAL_MIN_RELEASABLE:
        return None, 0, f"{releasable} negative multipliers at the best vertex"
    w = 0.5 / d

    def dual(r, nu, beta):  # P, x_P and q at (nu, beta), with r = c - G nu - beta
        P = np.flatnonzero(r > 0.0)
        rP = r[P]
        xP = rP * w[P]
        return P, xP, -0.25 * (nu @ nu) - 0.5 * (rP @ xP) - beta

    nu, beta = np.zeros(m), _water_fill(c, w)
    r = c - beta
    P, xP, q = dual(r, nu, beta)
    K = np.empty((m + 1, m + 1))
    for steps in range(1, DUAL_STEPS + 1):
        GP = G[P]
        WG = GP * w[P, None]
        K[:m, :m] = WG.T @ GP
        K.flat[: m * (m + 1): m + 2] += 0.5  # I/2 on the nu block's diagonal
        K[m, :m] = K[:m, m] = WG.sum(axis=0)
        K[m, m] = w[P].sum()
        grad = np.append(xP @ GP - 0.5 * nu, xP.sum() - 1.0)
        L, info = dpotrf(K, lower=1)
        if info:
            return None, steps, "singular dual Hessian"
        step = dpotrs(L, grad, lower=1)[0]
        slope = grad @ step
        fall = G @ step[:m] + step[m]  # r falls by t * fall along the step
        t = 1.0
        while True:
            r_new = r - t * fall
            P_new, xP_new, q_new = dual(r_new, nu + t * step[:m], beta + t * step[m])
            if q_new >= q + DUAL_ARMIJO * t * slope - n * EPS * abs(q):
                break
            t *= 0.5
            if t < DUAL_MIN_STEP:
                return None, steps, "line search stalled"
        nu, beta, r = nu + t * step[:m], beta + t * step[m], r_new
        if t == 1.0 and np.array_equal(P_new, P):
            z = np.zeros(n)
            z[P] = xP_new / xP_new.sum()
            return (P, z), steps, "dual"
        P, xP, q = P_new, xP_new, q_new
    return None, DUAL_STEPS, "Newton step cap"


def _certified_seed(spec: ProblemSpec, P: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """The dual's point z as the seed, if the kernel started at (P, z) would stop at once; else None.

    Three tests, the kernel's own, at the cost of one product with A and an
    O(|P|^2*m) face: the starting face of P passes the kernel's warm-start
    test (_starting_face on 2(G_P G_P' + diag(d_P))); with g = 2Az - tau*mu
    and beta = -mean(g_P), |g_P + beta| is at round-off (_gradient_tol), so z
    is the face's minimizer; and no g_i + beta off P is below -_gradient_tol,
    so the kernel would release nothing. That is the KKT system of the seed's
    convex problem on a face with no flat direction.
    """
    cov, n = spec.cov, spec.n
    h = 2.0 * cov.diag(np.arange(n))
    c = spec.tau * spec.mu
    GP = cov.G[P]
    H = 2.0 * (GP @ GP.T)
    H.flat[:: P.size + 1] += 2.0 * cov.d[P]
    if not _starting_face(H, np.arange(P.size), P.size, _curvature_tol(h))[1]:
        return None
    g = 2.0 * cov.matvec(z) - c
    lam = g - g[P].mean()  # g_i + beta
    g_tol = _gradient_tol(h, c)
    if np.abs(lam[P]).max() > g_tol or lam.min() < -g_tol:
        return None
    x = z.copy()
    x[P] += (1.0 - x.sum()) / P.size
    return x


def dense_simplex_minimizer(spec: ProblemSpec) -> np.ndarray:
    """Exact minimizer of f over the full simplex (no sparsity).

    The active-set kernel on every index: its top-k entries seed the block
    solvers with a support informed by the dense optimum rather than by mu
    alone. A simplex point keeps its largest entry in its top-k, so the seed
    is never empty. For a factor form with d > 0, Newton steps on the
    (m + 1)-variable dual (_dual_start) guess the free set and a point on it.
    When the point passes the kernel's own tests (_certified_seed: its
    warm-start face test, stationarity on the free set and no negative
    multiplier off it) it is returned and the kernel does not run; otherwise
    the kernel starts there and needs a couple of steps where a cold start
    from one vertex takes about two per free asset. Either way the result is
    proved optimal by the kernel's tests, so a wrong guess costs time only. A
    dense covariance, a d with a zero entry, few negative multipliers at the
    kernel's cold start (large tau), a guess that does not settle, or a
    starting face singular to round-off starts the kernel cold, at the best
    single-asset vertex. One debug event per seed names the start (dual, or
    cold with the reason), the Newton steps and the kernel steps (0 for a
    certified dual point).
    """
    start, newton_steps, reason = _dual_start(spec)
    x = None if start is None else _certified_seed(spec, *start)
    if x is not None:
        steps, warm = 0, True
    else:
        x, steps, warm = _active_set(spec, np.arange(spec.n), start)
        if start is not None and not warm:
            reason = "singular starting face"
    log.debug("dense seed: start=%s newton_steps=%d kernel_steps=%d",
              "dual" if warm else f"cold ({reason})", newton_steps, steps)
    return x


def _log_level(rec: OuterRecord) -> None:
    """The debug event of one penalty level, from its finished record."""
    log.debug("pd level: rho=%s inner_iters=%d jumps=%d q=%s infeas=%s note=%s",
              rec.rho, rec.inner_iters, rec.jumps, rec.q, rec.infeas, rec.note)


def penalty_loop(spec: ProblemSpec, y: np.ndarray, x_feas: np.ndarray, lam_max: float,
                 cfg: SolverConfig) -> tuple[np.ndarray, list[OuterRecord], float, int]:
    """The penalty levels from the seed's top-k y: (last y, trace, upsilon, safeguard resets).

    rho starts at cfg.rho0, raised to the floor lambda_max + 1 (lam_max as
    validate_problem returns it) when below it, which the first level's note
    records. Each penalty level is one pass of the loop: its solves, its
    first x-step x0 and q0 = q_rho(x0, y), which sets
    upsilon = max(f(x_feas), q0) on the first level and is the safeguard's
    probe on later ones (q0 > upsilon restarts the level from the feasible
    point x_feas), then bcd_inner and the level's OuterRecord, logged as one
    "pd level:" debug event once the next probe settles its note. The loop
    ends when a level's |x - y| is within cfg.eps_outer or after
    cfg.max_outer levels; rho grows by cfg.zeta between levels.
    """
    trace: list[OuterRecord] = []
    rho = cfg.rho0
    raised_note = ""
    if rho < lam_max + 1.0:
        rho = lam_max + 1.0
        raised_note = f"rho0 raised to lambda_max+1 = {rho:.6g}"
        log.info(raised_note)
    safeguard_resets = 0
    for j in range(cfg.max_outer):
        fact = build_factorization(spec, rho)
        x0 = x_step(fact, y)  # the level's first x-step, which bcd_inner takes as given
        q0 = penalty_q(spec, rho, x0, y)
        if j == 0:
            upsilon = max(objective_f(spec, x_feas), q0)
        else:
            if q0 > upsilon:  # the safeguard: this level starts from x_feas
                y, x0 = x_feas.copy(), None
                safeguard_resets += 1
                trace[-1].note = (trace[-1].note + "; " if trace[-1].note else "") + "safeguard reset"
            _log_level(trace[-1])  # the previous level's record is final once probed
        x, y, inner_iters, q_trace, _ = bcd_inner(spec, fact, y, cfg, x0)
        infeas = float(np.abs(x - y).max())
        trace.append(OuterRecord(rho=rho, inner_iters=inner_iters, q=q_trace[-1], infeas=infeas,
                                 note=raised_note if j == 0 else "", jumps=fact.jumps))
        if infeas <= cfg.eps_outer:
            break
        rho *= cfg.zeta
    _log_level(trace[-1])
    return y, trace, upsilon, safeguard_resets


def ccmv_pd_solve(spec: ProblemSpec, cfg: SolverConfig | None = None) -> Solution:
    """Full penalty-decomposition solve: seed, certified exit or penalty loop, polish, certify.

    The seed is the exact minimizer of f over the whole simplex, and its
    top-k support is polished cold, so that polish is bit for bit
    polish_support(spec, top-k of the seed). f(seed) bounds f from below on
    the feasible set, whatever k, and is the Solution's lower_bound.

    When the seed has at most k nonzeros it is feasible, and so a global
    minimizer: the polish of its support reaches the same f, and is returned
    at once, with status converged, an empty trace, upsilon = f(x_feas) and
    one "pd exit:" debug event. No penalty level is built.

    Otherwise penalty_loop runs the levels from the seed's top-k, and the
    result is the better of the polished final support and the seed's polish
    (the final polish on a tie). When the two are the same support, the
    seed's polish is the answer and no second polish runs. The final
    support's polish starts warm from the last y: a warm start can move the
    last bit of f, and the answer could then trail the seed's independent
    polish.
    """
    t0 = time.perf_counter()
    cfg = cfg or SolverConfig()
    lam_max = validate_problem(spec)

    x_feas = make_feasible_point(spec)
    seed = dense_simplex_minimizer(spec)
    lower_bound = objective_f(spec, seed)
    y = y_step(seed, spec.k)
    seed_support = np.flatnonzero(y)
    incumbent = polish_support(spec, seed_support)

    nonzeros = np.count_nonzero(seed)
    if nonzeros <= spec.k:  # the seed is feasible, hence globally optimal
        log.debug("pd exit: seed has %d <= k = %d nonzeros", nonzeros, spec.k)
        weights, objective = incumbent
        trace, upsilon, safeguard_resets = [], objective_f(spec, x_feas), 0
        status = STATUS_CONVERGED
    else:
        y, trace, upsilon, safeguard_resets = penalty_loop(spec, y, x_feas, lam_max, cfg)
        final_support = np.flatnonzero(y)
        if np.array_equal(final_support, seed_support):
            weights, objective = incumbent  # the same support's polish
        else:
            weights, objective = polish_support(spec, final_support, y)
            if incumbent[1] < objective:
                weights, objective = incumbent
        status = STATUS_CONVERGED if trace[-1].infeas <= cfg.eps_outer else STATUS_MAX_ITERATIONS
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
        lower_bound=lower_bound,
    )
