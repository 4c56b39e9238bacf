"""Problem data model: instance types, moment estimation and objective evaluators.

All solvers consume a ProblemSpec (covariance A, return vector mu, trade-off
tau, cardinality bound k) and minimize

    f(x) = x' A x - tau * mu' x

over the k-sparse simplex {e'x = 1, x >= 0, ||x||_0 <= k}. The solvers read
A only through spec.cov: a DenseCovariance over the n x n matrix, or a
FactorCovariance over G and d when A = G G' + diag(d) has a rank small
beside n, which costs O(n*m) where the dense form costs O(n^2). f and the
penalty function q_rho have one evaluator each, objective_f and penalty_q:
one product with A, sparse x or dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dstemr, dtrtrs

from .errors import (
    AsymmetricA,
    BadData,
    BadDimension,
    BadConfig,
    BadK,
    BadTau,
    InsufficientData,
    NotPSD,
    NumericalBreakdown,
)

# Admit eigenvalues down to -PSD_TOL * lambda_max: sample covariances are PSD
# only up to round-off.
PSD_TOL = 1e-10
SYM_TOL = 1e-12

# validate_problem answers both spectral questions (lambda_max, and is A PSD?)
# with one eigvalsh for n <= EIGVALSH_MAX_N, and with max_eigenvalue's Lanczos
# plus one shifted Cholesky above it. Each Lanczos step has a fixed overhead,
# and a rank-deficient sample covariance takes about twice the steps of a
# factor model. On such covariances (60 periods, 1 BLAS thread) the Lanczos path
# cost 1.03x eigvalsh at n = 130, 1.01x at 140 and 0.93x at 150; on factor
# models it is faster from n = 100 on.
EIGVALSH_MAX_N = 140

# A factor-form covariance G G' + diag(d), G n x m, is read through its
# factors when m * FACTOR_RANK_RATIO <= n, and formed into a dense A otherwise.
# Whole ccmv_pd_solve time, factor form over dense form, on random factor
# models (1 BLAS thread, best of 7-30, seeds 0-2): at n/m = 2 it is 0.87-1.19
# for every n from 10 to 476; at n/m = 4, 0.92-0.97 at n = 100, 0.68-0.76 at
# 226 and 0.55-0.60 at 476; at n/m >= 8, 0.66-0.97 at n = 100 and 0.28-0.71
# at n = 476. Below n = 100 the two are within about 15% (under 3 ms) at any
# rank. The sandwich's n = 10, m = 5 stays dense.
FACTOR_RANK_RATIO = 4

def _read_only(values) -> np.ndarray:
    """values as a read-only float64 array.

    An input that already is one is kept as is; any other is copied before
    it is frozen, so the caller's own array stays writeable.
    """
    a = np.asarray(values, dtype=float)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ReturnsMatrix:
    """T x n matrix of per-period simple returns."""

    values: np.ndarray
    tickers: tuple[str, ...]

    def __post_init__(self):
        values = np.atleast_2d(_read_only(self.values))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if values.ndim != 2 or values.shape[1] != len(self.tickers):
            raise BadDimension(
                f"returns shape {values.shape} does not match {len(self.tickers)} tickers"
            )
        if values.shape[0] < 2:
            raise InsufficientData(f"need at least 2 periods, got {values.shape[0]}")
        if values.shape[1] < 1:
            raise BadDimension("need at least one asset")
        if not np.isfinite(values).all():
            t, i = np.argwhere(~np.isfinite(values))[0]
            raise BadData(f"non-finite return at period {t}, asset {self.tickers[i]!r}")


def dense_covariance(G: np.ndarray, d: np.ndarray) -> np.ndarray:
    """G G' + diag(d) as a read-only n x n matrix.

    G @ G.T is one symmetric rank-m update (BLAS syrk), exactly symmetric.
    """
    A = G @ G.T
    A.flat[:: A.shape[0] + 1] += d
    A.setflags(write=False)
    return A


class DenseCovariance:
    """A covariance held as the n x n matrix A; the solvers read it only through these methods.

    Each method is the plain dense expression. Its lambda_max is
    validate_problem's, from eigvalsh or Lanczos on A. G and d are kept, None
    for a dense input, when A was formed from a factor form whose rank is not
    small beside n (FACTOR_RANK_RATIO).
    """

    factored = False

    def __init__(self, A: np.ndarray, G: np.ndarray | None = None, d: np.ndarray | None = None):
        self.A, self.G, self.d = A, G, d
        self.n = A.shape[0]

    def diag(self, idx: np.ndarray) -> np.ndarray:
        """A_ii for i in idx."""
        return self.A[idx, idx]

    def row_reader(self, idx: np.ndarray):
        """The map J -> A[idx[J]][:, idx], |J| x |idx|, for the rows read on one index set of distinct indices."""
        A = self.A
        # column-major, as FactorCovariance's block is: the kernel's starting rows have one layout
        return lambda J: np.asfortranarray(A.take(idx[J], axis=0).take(idx, axis=1))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x."""
        return self.A @ x

    def quad(self, x: np.ndarray) -> float:
        """x'Ax."""
        return x @ (self.A @ x)

    def shifted_solver(self, rho: float) -> CholeskyLevel:
        """The solves with A + rho*I of one penalty level, by Cholesky: a CholeskyLevel."""
        return CholeskyLevel(self.A, rho)


class CholeskyLevel:
    """Solves with A + rho*I for a dense A, from one Cholesky: solve, sparse and coupling.

    One LAPACK potrf of A + rho*I (n^3 / 3 flops), then potrs backsolves,
    O(n^2) per row. ProblemSpec checked A once, so no call repeats scipy's
    per-call checks, which cost several times the backsolve itself at small n.
    The level holds its factor and A, and nothing that depends on what it was
    asked before: sparse is one full backsolve, and coupling solves the
    columns of S.
    """

    def __init__(self, A: np.ndarray, rho: float):
        n = A.shape[0]
        M = A.copy()
        M.flat[:: n + 1] += rho
        self.L, info = dpotrf(M, lower=1, overwrite_a=1, clean=0)
        if info:  # pragma: no cover - A is PSD and rho > 0
            raise NumericalBreakdown(f"Cholesky of A + {rho}*I failed")
        self.A = A

    def solve(self, B: np.ndarray) -> np.ndarray:
        """B (A + rho I)^{-1}, row by row."""
        return dpotrs(self.L, B.T, lower=1)[0].T

    def sparse(self, S: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(A + rho I)^{-1} b for the b that is v on S and zero off it: one O(n^2) backsolve."""
        b = np.zeros(self.A.shape[0])
        b[S] = v
        return self.solve(b[None])[0]

    def coupling(self, S: np.ndarray) -> np.ndarray:
        """[A (A + rho I)^{-1}]_SS, |S| x |S|: A[S] times the solved columns of S, O(n^2*|S|)."""
        E = np.zeros((S.size, self.A.shape[0]))
        E[np.arange(S.size), S] = 1.0
        return self.A[S] @ self.solve(E).T


class FactorCovariance:
    """A = G G' + diag(d) (G n x m, d >= 0), read through its factors without forming A.

    Same methods as DenseCovariance, and lambda_max, which validate_problem
    calls: a product or a quadratic form costs O(n*m), a row of a reader on
    idx O(|idx|*m) after one gather of G[idx], and shifted_solver gives solves
    with A + rho*I by Woodbury (a WoodburyLevel). A, for callers outside the
    solvers, is formed on first read and kept. When d is constant, the m x m
    Gram matrix G'G is formed on the first call of lambda_max or
    shifted_solver, never at construction, and kept: it gives lambda_max and
    every penalty level's capacitance, so an operator pays its O(n*m^2)
    product once, also across the specs that dataclasses.replace(spec, k=...)
    builds on it.
    """

    factored = True

    def __init__(self, G: np.ndarray, d: np.ndarray):
        self.G, self.d = G, d
        self.n = G.shape[0]
        self._diag = np.einsum("ij,ij->i", G, G) + d
        self._A = None
        self._gram = None

    @property
    def A(self) -> np.ndarray:
        if self._A is None:
            self._A = dense_covariance(self.G, self.d)
        return self._A

    def diag(self, idx: np.ndarray) -> np.ndarray:
        return self._diag[idx]

    def row_reader(self, idx: np.ndarray):
        # G[idx] is gathered once per reader; the dense seed's reader uses G itself
        whole = np.array_equal(idx, np.arange(self.n))
        Gi, di = (self.G, self.d) if whole else (self.G[idx], self.d[idx])

        def rows(J):
            R = (Gi @ Gi[J].T).T  # columns J of the symmetric A_idx, transposed
            for r, j in enumerate(J.tolist()):  # scalar adds: a fancy index costs more for a few rows
                R[r, j] += di[j]
            return R

        return rows

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.G @ (x @ self.G) + self.d * x

    def quad(self, x: np.ndarray) -> float:
        v = x @ self.G
        return v @ v + x @ (self.d * x)

    def _gram_matrix(self) -> np.ndarray | None:
        """G'G (m x m) when d is constant, None otherwise; one O(n*m^2) product on first call, then kept."""
        if self._gram is None and (self.d == self.d[0]).all():
            self._gram = self.G.T @ self.G
        return self._gram

    def lambda_max(self) -> float:
        """lambda_max(A): from the m x m Gram matrix G'G when d is constant, else by Lanczos.

        With d = c*e, A = G G' + c*I and lambda_max(G G') = lambda_max(G'G), so
        an m x m eigvalsh of the operator's one G'G gives it. Otherwise
        max_eigenvalue runs on the O(n*m) product. A G whose G'G overflows
        gives a non-finite value, which validate_problem rejects.
        """
        gram = self._gram_matrix()
        if gram is not None:
            return float(np.linalg.eigvalsh(gram)[-1] + self.d[0])
        return max_eigenvalue(self)

    def shifted_solver(self, rho: float) -> WoodburyLevel:
        """The solves with A + rho*I of one penalty level, by Woodbury: a WoodburyLevel.

        For a constant d its capacitance comes from the operator's one G'G,
        O(m^2) per rho; a varying d forms it by an O(n*m^2) product.
        """
        shift = self.d + rho
        if not shift.min() > 0.0:
            raise NumericalBreakdown(f"A + {rho}*I has a zero diagonal in factor form")
        inv = 1.0 / shift
        gram = self._gram_matrix()
        if gram is not None:
            C = gram / shift[0]
        else:
            Gs = self.G * np.sqrt(inv)[:, None]
            C = Gs.T @ Gs
        C.flat[:: C.shape[0] + 1] += 1.0
        L, info = dpotrf(C, lower=1)
        if info:  # pragma: no cover - C >= I
            raise NumericalBreakdown(f"capacitance of A + {rho}*I is not positive definite")
        return WoodburyLevel(self.G, self.d, rho, inv, L)


class WoodburyLevel:
    """Solves with A + rho*I for A = G G' + diag(d), from one m x m Cholesky: solve, sparse and coupling.

    With D = diag(d + rho) and the capacitance C = I + G'D^{-1}G (its
    eigenvalues in [1, 1 + lambda_max / rho]), Woodbury's identity (Hager,
    SIAM Review 31, 1989) gives (A + rho I)^{-1} = D^{-1} - D^{-1}G C^{-1}
    G'D^{-1}. A right-hand side that is zero off S meets G only through G_S,
    so sparse costs O(|S|*m + m^2 + n*m) and coupling O(|S|*m^2), and no
    column of the inverse is formed or kept.
    """

    def __init__(self, G: np.ndarray, d: np.ndarray, rho: float, inv: np.ndarray, L: np.ndarray):
        # inv = 1 / (d + rho); L is the lower Cholesky factor of C
        self.G, self.d, self.rho, self.inv, self.L = G, d, rho, inv, L

    def solve(self, B: np.ndarray) -> np.ndarray:
        """B (A + rho I)^{-1}, row by row: (B - (B D^{-1} G) C^{-1} G') D^{-1}, O(n*m) per row."""
        G, inv = self.G, self.inv
        Z = dpotrs(self.L, ((B * inv) @ G).T, lower=1)[0].T
        return (B - Z @ G.T) * inv

    def sparse(self, S: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(A + rho I)^{-1} b for the b that is v on S and zero off it."""
        w = v * self.inv[S]  # D^{-1} b on S
        z = dpotrs(self.L, w @ self.G[S], lower=1)[0]
        x = -(self.G @ z) * self.inv
        x[S] += w
        return x

    def coupling(self, S: np.ndarray) -> np.ndarray:
        """[A (A + rho I)^{-1}]_SS = I - rho [(A + rho I)^{-1}]_SS, |S| x |S|.

        By Woodbury it is diag(d_S / (d_S + rho)) + rho H C^{-1} H' with
        H = D_S^{-1} G_S: a sum of PSD terms, so no cancellation at large rho.
        """
        inv = self.inv[S]
        V = dtrtrs(self.L, (self.G[S] * inv[:, None]).T, lower=1)[0]  # L^{-1} H'
        K = self.rho * (V.T @ V)
        K.flat[:: S.size + 1] += self.d[S] * inv
        return K


@dataclass(frozen=True, init=False)
class ProblemSpec:
    """Full instance of the cardinality-constrained mean-variance problem.

    The covariance comes dense, as A, or in factor form, as G (n x m, m >= 1)
    and d (length n, >= 0) with A = G G' + diag(d). cov is the operator the
    solvers read it through: a FactorCovariance when m * FACTOR_RANK_RATIO
    <= n, else a DenseCovariance (of G G' + diag(d) for a factor form).
    spec.A is the dense matrix, formed from the factors on first read; G and
    d are None for a dense input. cov=... builds a spec on an existing
    operator, as dataclasses.replace does and as estimate_moments' callers
    do with its est.cov.
    """

    cov: DenseCovariance | FactorCovariance
    mu: np.ndarray
    tau: float
    k: int

    def __init__(self, A=None, mu=None, tau=None, k=None, *, G=None, d=None, cov=None):
        if mu is None or tau is None or k is None:
            raise TypeError("ProblemSpec needs mu, tau and k")
        if sum((A is not None, G is not None or d is not None, cov is not None)) != 1:
            raise TypeError("ProblemSpec needs exactly one of A, G and d, or cov")
        mu = _read_only(np.ravel(mu))
        n = mu.shape[0]
        if A is not None:
            A = _read_only(A)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise BadDimension(f"A must be square, got shape {A.shape}")
            if n != A.shape[0]:
                raise BadDimension(f"mu has length {n}, A is {A.shape[0]}x{A.shape[0]}")
            if not (np.isfinite(A).all() and np.isfinite(mu).all()):
                raise BadData("non-finite entry in A or mu")
            cov = DenseCovariance(A)
        elif cov is None:
            if G is None or d is None:
                raise TypeError("the factor form needs both G and d")
            G, d = _read_only(G), _read_only(np.ravel(d))
            if G.ndim != 2 or G.shape[0] != n or G.shape[1] < 1:
                raise BadDimension(f"G must be {n} x m with m >= 1 for mu of length {n}, "
                                   f"got shape {G.shape}")
            if d.shape[0] != n:
                raise BadDimension(f"d has length {d.shape[0]}, mu {n}")
            if not (np.isfinite(G).all() and np.isfinite(d).all() and np.isfinite(mu).all()):
                raise BadData("non-finite entry in G, d or mu")
            if (d < 0.0).any():
                i = int(np.argmin(d))
                raise BadData(f"d must be >= 0, got {d[i]:.6g} at asset {i}")
            cov = (FactorCovariance(G, d) if G.shape[1] * FACTOR_RANK_RATIO <= n
                   else DenseCovariance(dense_covariance(G, d), G, d))
            # a PSD matrix has its largest entries on its diagonal, G_i.G_i + d_i
            diag = cov.diag(np.arange(n))
            if not np.isfinite(diag).all():
                i = int(np.flatnonzero(~np.isfinite(diag))[0])
                raise BadData(f"G G' + diag(d) overflows: its diagonal is {diag[i]} at asset {i}")
        else:
            if cov.n != n:
                raise BadDimension(f"mu has length {n}, the covariance is {cov.n}x{cov.n}")
            if not np.isfinite(mu).all():
                raise BadData("non-finite entry in mu")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "tau", float(tau))
        object.__setattr__(self, "k", int(k))

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def A(self) -> np.ndarray:
        """The dense covariance, read-only; formed once for a factor form."""
        return self.cov.A

    @property
    def G(self) -> np.ndarray | None:
        return self.cov.G

    @property
    def d(self) -> np.ndarray | None:
        return self.cov.d


@dataclass(frozen=True)
class SolverConfig:
    """Penalty schedule, tolerances and iteration caps."""

    rho0: float = 0.1
    zeta: float = 10.0
    eps_inner: float = 1e-4
    eps_outer: float = 1e-4
    max_inner: int = 1000
    max_outer: int = 50

    def __post_init__(self):
        if self.rho0 <= 0:
            raise BadConfig(f"rho0 must be positive, got {self.rho0}")
        if self.zeta <= 1:
            raise BadConfig(f"zeta must exceed 1, got {self.zeta}")
        if self.eps_inner <= 0 or self.eps_outer <= 0:
            raise BadConfig("tolerances must be positive")
        if self.max_inner < 1 or self.max_outer < 1:
            raise BadConfig("iteration caps must be >= 1")


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean and covariance of a returns matrix; cov is the spec's operator."""

    mu: np.ndarray
    cov: DenseCovariance | FactorCovariance

    @property
    def A(self) -> np.ndarray:
        """The dense covariance, formed once for a factor form."""
        return self.cov.A


@dataclass
class OuterRecord:
    """One outer (penalty) iteration of a solver run."""

    rho: float
    inner_iters: int
    q: float
    infeas: float
    note: str = ""
    jumps: int = 0  # accepted jumps to the level's saddle point on a stable support


@dataclass
class KktCertificate:
    """Multipliers and residuals of the first-order optimality system."""

    beta: float
    lam: np.ndarray
    support: tuple[int, ...]
    stationarity_residual: float
    complementarity_residual: float
    dual_feasibility_violation: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity_residual,
                   self.complementarity_residual,
                   self.dual_feasibility_violation)


STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"


@dataclass
class Solution:
    """Solver output: a k-sparse portfolio plus its certificate and trace."""

    weights: np.ndarray
    support: tuple[int, ...]
    objective: float
    kkt: KktCertificate | None
    status: str
    trace: list[OuterRecord] = field(default_factory=list)
    solver: str = ""
    safeguard_resets: int = 0
    wall_time: float = 0.0
    upsilon: float = float("nan")
    lower_bound: float = float("nan")  # f(seed), below f on every k-sparse point; NaN if not known

    @property
    def kkt_residual(self) -> float:
        return self.kkt.max_residual if self.kkt is not None else float("nan")


def estimate_moments(returns: ReturnsMatrix) -> MomentEstimate:
    """Sample mean and (T-1)-denominator covariance C'C / (T-1), C the centred returns.

    A window of T periods gives a covariance of rank below T. When
    T * FACTOR_RANK_RATIO <= n it is returned in factor form, G = C'/sqrt(T-1)
    and d = 0, and no n x n array is formed; otherwise as the dense C'C / (T-1),
    symmetrized. ProblemSpec(cov=est.cov, ...) builds the instance either way.
    """
    R = returns.values
    T, n = R.shape
    mu = R.mean(axis=0)
    C = R - mu
    if T * FACTOR_RANK_RATIO <= n:
        cov = FactorCovariance(_read_only(C.T / np.sqrt(T - 1)), _read_only(np.zeros(n)))
    else:
        A = C.T @ C / (T - 1)
        cov = DenseCovariance(_read_only(0.5 * (A + A.T)))
    # a PSD matrix has its largest entries on its diagonal
    if not np.isfinite(cov.diag(np.arange(n))).all():
        raise BadData("returns too large: the sample covariance overflows")
    return MomentEstimate(mu=mu, cov=cov)


def validate_problem(spec: ProblemSpec) -> float:
    """Raise the named InvalidSpec subclass on the first violated invariant.

    Returns lambda_max(A), clamped at 0, so a solver needs no second spectral
    solve. A factor form G G' + diag(d) with d >= 0 (ProblemSpec checks d) is
    symmetric and PSD by construction, so its check is FactorCovariance's
    lambda_max alone: O(n*m^2) for a constant d. A dense A is PSD when
    lambda_min >= -PSD_TOL * max(lambda_max, 1). For n <= EIGVALSH_MAX_N one
    eigvalsh gives both eigenvalues. Above it, lambda_max comes from
    max_eigenvalue (Lanczos, O(n^2) per step) and the PSD test is one Cholesky
    of A + PSD_TOL * max(lambda_max, 1) * I (n^3 / 3 flops): it fails exactly
    when lambda_min is below the bound, up to round-off of about
    n * EPS * ||A||. At n = 1000 (1 BLAS thread) the whole dense check takes
    about 40 ms, against about 100 ms with eigvalsh; the factor form's, at
    m = 50, about 0.3 ms.
    """
    n = spec.n
    if spec.cov.factored:
        lam_max = spec.cov.lambda_max()
        if not np.isfinite(lam_max):
            raise BadData(f"lambda_max of G G' + diag(d) is {lam_max}: G G' overflows")
        lam_max = max(lam_max, 0.0)
    else:
        A = spec.A
        scale = max(1.0, float(A.max()), -float(A.min()))
        # A - A.T is antisymmetric, so its largest entry is its largest |entry|;
        # the temporary is no larger than the copy of A the PSD test makes
        asymmetry = float((A - A.T).max())
        if asymmetry > SYM_TOL * scale:
            raise AsymmetricA(f"max asymmetry {asymmetry:.3e}")
        # eigvalsh and the Cholesky read the lower triangle, and Lanczos all of A;
        # the two triangles differ by at most SYM_TOL * scale
        if n <= EIGVALSH_MAX_N:
            evals = np.linalg.eigvalsh(A)
            lam_max = max(evals[-1], 0.0)
            if evals[0] < -PSD_TOL * max(lam_max, 1.0):
                raise NotPSD(f"smallest eigenvalue {evals[0]:.3e}")
        else:
            lam_max = max(max_eigenvalue(A), 0.0)
            shift = PSD_TOL * max(lam_max, 1.0)
            shifted = A.copy()
            shifted.flat[:: n + 1] += shift
            # shifted.T is Fortran-ordered, so LAPACK factors it in place; its
            # upper triangle is the lower triangle of A
            info = dpotrf(shifted.T, lower=0, overwrite_a=1, clean=0)[1]
            del shifted
            if info:
                raise NotPSD(f"smallest eigenvalue below {-shift:.3e}: A + {shift:.3e} I is not positive definite")
    if spec.tau <= 0:
        raise BadTau(f"tau must be positive, got {spec.tau}")
    if not 1 <= spec.k <= spec.n:
        raise BadK(f"k must lie in [1, {spec.n}], got {spec.k}")
    return float(lam_max)


def max_eigenvalue(A: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix, by Lanczos with full reorthogonalization.

    Starts from a fixed vector of its own seeded generator, so the result
    depends on A alone, never on numpy's global random state. It reorthogonalizes
    each new vector twice against the whole basis (Parlett, The Symmetric
    Eigenvalue Problem, 1998, ch. 13). After step j, LAPACK's dstemr gives the
    top eigenpair (theta, s) of the tridiagonal T_j in O(j). It stops when the
    Ritz residual beta_j * |s_j| falls to the round-off of a product with A,
    sqrt(n) * EPS times the largest |theta| or |alpha_i| so far (a lower bound
    on ||A||); that also covers beta_j = 0, an invariant subspace, reached at
    the latest after n steps. A step costs one product with A (O(n^2)) plus
    O(n * j) for the reorthogonalization. A factor model at n = 1000 stops
    after 37-47 steps, about 10 ms, against about 100 ms for eigvalsh; a
    spectrum with no gap at the top takes longer (diag(linspace(0, 1, 1000)):
    247 steps, 150 ms). The basis grows by doubling, so it holds
    O(n * steps) floats.
    validate_problem calls it above EIGVALSH_MAX_N assets; below, one eigvalsh
    is cheaper than the steps' fixed overhead. A may also be a covariance
    operator, whose matvec is then the product (O(n*m) in factor form).
    """
    if isinstance(A, FactorCovariance):
        n, product = A.n, A.matvec
    else:
        A = np.asarray(A, dtype=float)
        n, product = A.shape[0], A.__matmul__
    q = np.random.default_rng(0).standard_normal(n)
    Q = np.empty((min(n, 16), n))  # row j: the j-th Lanczos vector; grows by doubling
    Q[0] = q / np.sqrt(q @ q)
    alpha, beta = np.empty(n), np.empty(n)
    tol = np.sqrt(n) * np.finfo(float).eps
    scale = 0.0
    for j in range(n):
        w = product(Q[j])
        basis = Q[: j + 1]
        h = basis @ w
        alpha[j] = h[j]
        w -= h @ basis
        w -= (basis @ w) @ basis  # twice is enough
        beta[j] = np.sqrt(w @ w)
        # range 2, il = iu = j + 1: the top eigenpair only. dstemr overwrites its
        # off-diagonal argument, in which beta[j] is only workspace
        _, theta, s, info = dstemr(alpha[: j + 1], beta[: j + 1].copy(), 2, 0.0, 0.0, j + 1, j + 1)
        if info:
            raise NumericalBreakdown(f"dstemr failed on the {j + 1}-step Lanczos matrix")
        scale = max(scale, abs(theta[0]), abs(alpha[j]))
        if beta[j] * abs(s[j, 0]) <= tol * scale or j == n - 1:
            return float(theta[0])
        if j + 1 == Q.shape[0]:
            Q = np.vstack((Q, np.empty((min(j + 1, n - j - 1), n))))
        Q[j + 1] = w / beta[j]


def make_feasible_point(spec: ProblemSpec) -> np.ndarray:
    """Equal weights 1/k on the k assets of largest mu (ties: lowest index)."""
    order = np.lexsort((np.arange(spec.n), -spec.mu))
    x = np.zeros(spec.n)
    x[order[: spec.k]] = 1.0 / spec.k
    return x


def _check_dim(spec: ProblemSpec, v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != spec.n:
        raise BadDimension(f"{name} has length {v.shape[0]}, expected {spec.n}")
    return v


def objective_f(spec: ProblemSpec, x: np.ndarray) -> float:
    """f(x) = x'Ax - tau * mu'x, by one product with A: O(n^2), or O(n*m) in factor form."""
    x = _check_dim(spec, x, "x")
    return float(spec.cov.quad(x) - spec.tau * (spec.mu @ x))


def penalty_q(spec: ProblemSpec, rho: float, x: np.ndarray, y: np.ndarray) -> float:
    """q_rho(x, y) = f(x) + rho * ||x - y||_2^2."""
    x = _check_dim(spec, x, "x")
    y = _check_dim(spec, y, "y")
    d = x - y
    return objective_f(spec, x) + float(rho) * float(d @ d)
