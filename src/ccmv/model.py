"""Problem data model: instance types, moment estimation and objective evaluators.

All solvers consume a ProblemSpec (covariance A, return vector mu, trade-off
tau, cardinality bound k) and minimize

    f(x) = x' A x - tau * mu' x

over the k-sparse simplex {e'x = 1, x >= 0, ||x||_0 <= k}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .errors import (
    AsymmetricA,
    BadData,
    BadDimension,
    BadConfig,
    BadK,
    BadTau,
    InsufficientData,
    NotPSD,
)

# Admit eigenvalues down to -PSD_TOL * lambda_max: sample covariances are PSD
# only up to round-off.
PSD_TOL = 1e-10
SYM_TOL = 1e-12


@dataclass(frozen=True)
class ReturnsMatrix:
    """T x n matrix of per-period simple returns."""

    values: np.ndarray
    tickers: tuple[str, ...]
    period_label: str = "monthly"

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
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
        values.setflags(write=False)

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ProblemSpec:
    """Full instance of the cardinality-constrained mean-variance problem."""

    A: np.ndarray
    mu: np.ndarray
    tau: float
    k: int

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        mu = np.asarray(self.mu, dtype=float).ravel()
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "k", int(self.k))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise BadDimension(f"A must be square, got shape {A.shape}")
        if mu.shape[0] != A.shape[0]:
            raise BadDimension(f"mu has length {mu.shape[0]}, A is {A.shape[0]}x{A.shape[0]}")
        if not (np.isfinite(A).all() and np.isfinite(mu).all()):
            raise BadData("non-finite entry in A or mu")
        A.setflags(write=False)
        mu.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    """Penalty schedule, tolerances and iteration caps."""

    rho0: float = 0.1
    zeta: float = 10.0
    eps_inner: float = 1e-4
    eps_outer: float = 1e-4
    max_inner: int = 1000
    max_outer: int = 50
    upsilon_slack: float = 0.0

    def __post_init__(self):
        if self.rho0 <= 0:
            raise BadConfig(f"rho0 must be positive, got {self.rho0}")
        if self.zeta <= 1:
            raise BadConfig(f"zeta must exceed 1, got {self.zeta}")
        if self.eps_inner <= 0 or self.eps_outer <= 0:
            raise BadConfig("tolerances must be positive")
        if self.max_inner < 1 or self.max_outer < 1:
            raise BadConfig("iteration caps must be >= 1")
        if self.upsilon_slack < 0:
            raise BadConfig("upsilon_slack must be nonnegative")


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean and covariance of a returns matrix."""

    mu: np.ndarray
    A: np.ndarray


@dataclass
class OuterRecord:
    """One outer (penalty) iteration of a solver run."""

    rho: float
    inner_iters: int
    q: float
    infeas: float
    note: str = ""

    def to_dict(self) -> dict:
        d = {"rho": self.rho, "inner_iters": self.inner_iters,
             "q": self.q, "infeas": self.infeas}
        if self.note:
            d["note"] = self.note
        return d


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

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "stationarity": self.stationarity_residual,
            "dual_violation": self.dual_feasibility_violation,
            "complementarity": self.complementarity_residual,
        }


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

    @property
    def kkt_residual(self) -> float:
        return self.kkt.max_residual if self.kkt is not None else float("nan")

    def to_dict(self) -> dict:
        d = {
            "weights": [float(w) for w in self.weights],
            "support": [int(i) for i in self.support],
            "objective": float(self.objective),
            "kkt": self.kkt.to_dict() if self.kkt is not None else None,
            "status": self.status,
            "trace": [r.to_dict() for r in self.trace],
            "solver": self.solver,
            "wall_time": float(self.wall_time),
            "upsilon": None if np.isnan(self.upsilon) else float(self.upsilon),
        }
        if self.safeguard_resets:
            d["safeguard_resets"] = self.safeguard_resets
        return d


def estimate_moments(returns: ReturnsMatrix) -> MomentEstimate:
    """Sample mean and (T-1)-denominator covariance, symmetrized."""
    R = returns.values
    mu = R.mean(axis=0)
    C = R - mu
    A = C.T @ C / (R.shape[0] - 1)
    A = 0.5 * (A + A.T)
    return MomentEstimate(mu=mu, A=A)


def validate_problem(spec: ProblemSpec) -> float:
    """Raise the named InvalidSpec subclass on the first violated invariant.

    Returns lambda_max(A) (clamped at 0) from the eigenvalues the PSD test
    computes, so a solver needs no second spectral solve.
    """
    A = spec.A
    scale = max(1.0, float(np.abs(A).max()))
    asymmetry = float(np.abs(A - A.T).max())
    if asymmetry > SYM_TOL * scale:
        raise AsymmetricA(f"max asymmetry {asymmetry:.3e}")
    # eigvalsh reads one triangle; the other differs by at most SYM_TOL * scale
    evals = np.linalg.eigvalsh(A)
    lam_max = max(evals[-1], 0.0)
    if evals[0] < -PSD_TOL * max(lam_max, 1.0):
        raise NotPSD(f"smallest eigenvalue {evals[0]:.3e}")
    if spec.tau <= 0:
        raise BadTau(f"tau must be positive, got {spec.tau}")
    if not 1 <= spec.k <= spec.n:
        raise BadK(f"k must lie in [1, {spec.n}], got {spec.k}")
    return float(lam_max)


def max_eigenvalue(A: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix, by one LAPACK call."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return float(eigh(A, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0])


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
    """f(x) = x'Ax - tau * mu'x."""
    x = _check_dim(spec, x, "x")
    return float(x @ (spec.A @ x) - spec.tau * (spec.mu @ x))


def penalty_q(spec: ProblemSpec, rho: float, x: np.ndarray, y: np.ndarray) -> float:
    """q_rho(x, y) = f(x) + rho * ||x - y||_2^2."""
    x = _check_dim(spec, x, "x")
    y = _check_dim(spec, y, "y")
    d = x - y
    return objective_f(spec, x) + float(rho) * float(d @ d)
