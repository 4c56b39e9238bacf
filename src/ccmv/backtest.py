"""Rolling-horizon evaluation: in/out-of-sample returns, risks, Sharpe ratios, gaps."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BadConfig, InvalidSpec, SharpeUndefined, SigmaUndefined, TooLarge
from .model import (
    ProblemSpec,
    ReturnsMatrix,
    Solution,
    SolverConfig,
    estimate_moments,
)

log = logging.getLogger("ccmv")


@dataclass(frozen=True)
class BacktestConfig:
    """Rolling-horizon settings: window length, solver choice, instance knobs."""

    window: int
    tau: float
    k: int
    solver_kind: str = "pd"
    solver_cfg: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.window < 2:
            raise BadConfig(f"estimation window must be >= 2, got {self.window}")
        if self.solver_kind not in ("pd", "padm", "oracle"):
            raise BadConfig(f"unknown solver kind {self.solver_kind!r}")


@dataclass
class BacktestReport:
    """Per-window weights plus realized out-of-sample statistics."""

    weights_by_window: list[np.ndarray]
    oos_returns: list[float]
    mu_hat: float
    sigma_hat: float | None
    sharpe_hat: float | None
    in_sample: tuple[float, float, float | None]
    failed_windows: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        ret, risk, sr = self.in_sample
        return {
            "weights_by_window": [[float(w) for w in x] for x in self.weights_by_window],
            "oos_returns": [float(r) for r in self.oos_returns],
            "mu_hat": self.mu_hat,
            "sigma_hat": self.sigma_hat,
            "sharpe_hat": self.sharpe_hat,
            "in_sample": {"return": ret, "risk": risk, "sharpe": sr},
            "failed_windows": self.failed_windows,
        }


def in_sample_stats(spec: ProblemSpec, x: np.ndarray) -> tuple[float, float, float]:
    """(return, risk, sharpe) = (mu'x, x'Ax, mu'x / sqrt(x'Ax)).

    Risk is reported on the variance scale; the Sharpe ratio divides by its
    square root.
    """
    x = np.asarray(x, dtype=float)
    if abs(x.sum() - 1.0) > 1e-6:
        raise BadConfig(f"weights sum to {x.sum():.8f}, not 1")
    ret = float(spec.mu @ x)
    risk = float(x @ (spec.A @ x))
    if risk <= 0.0:
        if ret == 0.0:
            return ret, max(risk, 0.0), 0.0
        raise SharpeUndefined(f"zero risk with nonzero return {ret:.6g}")
    return ret, risk, ret / float(np.sqrt(risk))


def gap(g: float, g_hat: float) -> float:
    """|g - g_hat| / (|g_hat| + 1), the reference-relative discrepancy."""
    return abs(g - g_hat) / (abs(g_hat) + 1.0)


def _default_solver(kind: str) -> Callable[[ProblemSpec, SolverConfig], Solution]:
    if kind == "pd":
        from .pd import ccmv_pd_solve
        return ccmv_pd_solve
    if kind == "padm":
        from .padm import ccmv_padm_solve
        return ccmv_padm_solve
    from .oracle import brute_force_solve

    def _oracle(spec: ProblemSpec, _cfg: SolverConfig) -> Solution:
        return brute_force_solve(spec).to_solution()

    return _oracle


def rolling_horizon(
    returns: ReturnsMatrix,
    cfg: BacktestConfig,
    solve_fn: Callable[[ProblemSpec, SolverConfig], Solution] | None = None,
) -> BacktestReport:
    """Slide a fixed-length estimation window, rebalance each period, realize
    the next period's return.

    Window t uses rows t-window..t-1 (0-based) and realizes weights against
    row t, so no future row can influence the weights that trade into it.

    A window whose instance the solver rejects (InvalidSpec, or TooLarge from
    the oracle) carries the previous weights forward and is listed in
    failed_windows. Any other exception, such as MonotonicityViolation or
    NumericalBreakdown, is a solver fault and propagates.
    """
    R = returns.values
    T, _n = R.shape
    nu = cfg.window
    if nu >= T:
        raise BadConfig(f"window {nu} must be < number of periods {T}")
    n_oos = T - nu
    if n_oos < 2:
        raise SigmaUndefined(f"only {n_oos} out-of-sample return(s); need >= 2")

    solve = solve_fn if solve_fn is not None else _default_solver(cfg.solver_kind)
    weights_by_window: list[np.ndarray] = []
    oos: list[float] = []
    failed: list[int] = []
    x_prev: np.ndarray | None = None
    last_spec: ProblemSpec | None = None
    for t in range(nu, T):
        window = ReturnsMatrix(R[t - nu:t], returns.tickers, returns.period_label)
        est = estimate_moments(window)
        spec = ProblemSpec(A=est.A, mu=est.mu, tau=cfg.tau, k=cfg.k)
        last_spec = spec
        try:
            x_t = np.asarray(solve(spec, cfg.solver_cfg).weights, dtype=float)
        except (InvalidSpec, TooLarge) as exc:
            if x_prev is None:
                raise
            log.warning("window %d solver failed (%s); carrying weights forward", t, exc)
            failed.append(t)
            x_t = x_prev
        weights_by_window.append(x_t)
        oos.append(float(x_t @ R[t]))
        x_prev = x_t

    mu_hat = float(np.mean(oos))
    sigma2_hat = float(np.sum((np.asarray(oos) - mu_hat) ** 2) / (n_oos - 1))
    sigma_hat = float(np.sqrt(sigma2_hat))
    sharpe_hat = mu_hat / sigma_hat if sigma_hat > 0.0 else None

    try:
        in_sample = in_sample_stats(last_spec, weights_by_window[-1])
    except SharpeUndefined:
        ret = float(last_spec.mu @ weights_by_window[-1])
        in_sample = (ret, 0.0, None)

    return BacktestReport(
        weights_by_window=weights_by_window,
        oos_returns=oos,
        mu_hat=mu_hat,
        sigma_hat=sigma_hat,
        sharpe_hat=sharpe_hat,
        in_sample=in_sample,
        failed_windows=failed,
    )
