"""The three benchmark workloads: inputs made from the seed, one closed loop each.

Each workload is a closed loop with one caller: the next solver call starts
only after the previous one returns, as in batch solves and backtests. Item i
of a run with seed s is generated from seed ``s * SEED_STRIDE + i``; the
warm-up item uses the last seed of that block, which no timed item reaches.

Solvers are looked up as module attributes at call time (``ccmv.pd.ccmv_pd_solve``)
so that the tracer's wrappers, when installed, are the ones called.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import ccmv.backtest
import ccmv.oracle
import ccmv.padm
import ccmv.pd
import ccmv.synthetic
from ccmv.model import ReturnsMatrix

import gate

SEED_STRIDE = 100_000
WARMUP_ITEM = SEED_STRIDE - 1

# scale: spectral set-up and factorization dominate; the 2^|S| polish (1023
# patterns) is about a quarter of a solve, so it also carries the polish layer.
SCALE_N, SCALE_K = 1000, 10
# backtest: each window's covariance is rank-deficient (window < assets) and
# changes every period. A run holds many short back-to-back backtests on fresh
# return matrices: PD's mean iteration count differs up to twofold between
# matrices and is strongly correlated between neighbouring windows, so one
# 120-window backtest per run made the per-run median mostly a draw of one
# matrix (quartile spread of pd_solve_s_p50 over seeds about 0.25 of the median).
BT_ASSETS, BT_WINDOW, BT_WINDOWS, BT_K, BT_TAU = 100, 60, 6, 10, 0.5
# sandwich: small enough for the exact oracle, k alternating between items.
# PD's iteration count varies sevenfold between instances, so the median PD
# time needs many items per run: n = 12 gave about 1.6 items a second (the
# oracle takes 95% of an item) and a quartile spread over seeds of about 0.25
# from the instances alone; n = 10 gives about 3.7 items a second.
SANDWICH_N, SANDWICH_KS = 10, (4, 5)


@dataclass
class Recorder:
    """Timings, gate verdicts and solution statistics of one phase of a run."""

    seconds: dict = field(default_factory=lambda: {"pd": [], "padm": [], "oracle": []})
    attempted: int = 0
    faults: dict = field(default_factory=dict)  # call index -> (solver, item, reasons)
    objectives: list = field(default_factory=list)  # f(x) of PD portfolios
    gaps: list = field(default_factory=list)  # (f_pd - f_opt) / (|f_opt| + 1)
    sharpes: list = field(default_factory=list)  # out-of-sample, one per backtest
    rolling_seconds: float = 0.0  # wall time inside rolling_horizon
    item: int = 0

    @property
    def failed(self) -> int:
        return len(self.faults)

    def fail(self, call: int, solver: str, reason: str) -> None:
        self.faults.setdefault(call, (solver, self.item, []))[2].append(reason)

    def fail_outside_call(self, solver: str, reason: str) -> None:
        """Count an attempted operation that failed outside any solver call."""
        self.attempted += 1
        self.fail(self.attempted - 1, solver, reason)

    def call(self, solver: str, spec, fn, reraise: bool = False):
        """Time one solver call, gate what it returns, and return it.

        A call that raises is counted as failed and returns None, or re-raises
        when the caller (rolling_horizon) has its own handling for it.
        """
        index = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising solver is a counted failure, not a crash
            self.seconds[solver].append(time.perf_counter() - t0)
            self.fail(index, solver, f"raised {type(exc).__name__}: {exc}")
            if reraise:
                raise
            return None
        self.seconds[solver].append(time.perf_counter() - t0)
        if solver == "oracle":
            x, kkt = out.x, None
        else:
            x, kkt = out.weights, out.kkt_residual
        for reason in gate.portfolio_faults(spec, x, out.objective, kkt):
            self.fail(index, solver, reason)
        if solver == "pd":
            self.objectives.append(out.objective)
        return out


def _pd(rec: Recorder, spec):
    return rec.call("pd", spec, lambda: ccmv.pd.ccmv_pd_solve(spec))


def scale_item(rec: Recorder, seed: int, i: int) -> None:
    spec = ccmv.synthetic.factor_model_instance(n=SCALE_N, k=SCALE_K, seed=seed * SEED_STRIDE + i)
    _pd(rec, spec)


def monthly_returns(n: int, periods: int, seed: int) -> ReturnsMatrix:
    """Factor-model monthly returns, the recipe of ccmv.synthetic.monthly_returns_instance.

    Kept as a returns matrix so the backtest re-estimates moments every period.
    """
    rng = np.random.default_rng(seed)
    mean = rng.uniform(0.0, 0.02, size=n)
    m = max(3, n // 10)
    loadings = rng.standard_normal((n, m)) * 0.03
    factors = rng.standard_normal((periods, m))
    noise = rng.standard_normal((periods, n)) * 0.02
    return ReturnsMatrix(mean + factors @ loadings.T + noise, tuple(f"A{j}" for j in range(n)))


def backtest_item(rec: Recorder, seed: int, i: int) -> None:
    returns = monthly_returns(BT_ASSETS, BT_WINDOW + BT_WINDOWS, seed * SEED_STRIDE + i)
    cfg = ccmv.backtest.BacktestConfig(window=BT_WINDOW, tau=BT_TAU, k=BT_K)

    def solve(spec, solver_cfg):
        # re-raise so that rolling_horizon's own failure handling runs; the
        # window it then lists in failed_windows is the failure counted here
        return rec.call("pd", spec, lambda: ccmv.pd.ccmv_pd_solve(spec, solver_cfg),
                        reraise=True)

    t0 = time.perf_counter()
    try:
        report = ccmv.backtest.rolling_horizon(returns, cfg, solve_fn=solve)
    except Exception as exc:  # a backtest that cannot finish is a counted failure
        rec.fail_outside_call("backtest", f"rolling_horizon raised {type(exc).__name__}: {exc}")
        return
    finally:
        rec.rolling_seconds += time.perf_counter() - t0
    if report.sharpe_hat is None:
        rec.fail_outside_call("backtest", "out-of-sample Sharpe ratio undefined")
    else:
        rec.sharpes.append(report.sharpe_hat)


def sandwich_item(rec: Recorder, seed: int, i: int) -> None:
    spec = ccmv.synthetic.factor_model_instance(
        n=SANDWICH_N, k=SANDWICH_KS[i % len(SANDWICH_KS)], seed=seed * SEED_STRIDE + i)
    local = {
        "pd": _pd(rec, spec),
        "padm": rec.call("padm", spec, lambda: ccmv.padm.ccmv_padm_solve(spec)),
    }
    opt_index = rec.attempted
    opt = rec.call("oracle", spec, lambda: ccmv.oracle.brute_force_solve(spec))
    if opt is None:
        return
    found = {name: sol.objective for name, sol in local.items() if sol is not None}
    for reason in gate.sandwich_faults(opt.objective, found):
        rec.fail(opt_index, "oracle", reason)
    if "pd" in found:
        rec.gaps.append((found["pd"] - opt.objective) / (abs(opt.objective) + 1.0))


ITEMS = {
    "scale": scale_item,
    "backtest": backtest_item,
    "sandwich": sandwich_item,
}


def run_items(name: str, rec: Recorder, seed: int, seconds: float) -> tuple[int, float]:
    """Run items 0, 1, ... back to back until `seconds` of wall time have passed.

    Returns (items run, wall seconds). At least one item always runs.
    """
    item = ITEMS[name]
    t0 = time.perf_counter()
    i = 0
    while True:
        rec.item = i
        item(rec, seed, i)
        i += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return i, elapsed
