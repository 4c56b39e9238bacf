"""Acceptance gate: one test per criterion, one PASS/FAIL line each."""

import time

import numpy as np
import pytest

from ccmv import (
    BacktestConfig,
    ReturnsMatrix,
    Solution,
    SolverConfig,
    STATUS_CONVERGED,
    bcd_inner,
    brute_force_solve,
    build_factorization,
    ccmv_padm_solve,
    ccmv_pd_solve,
    gap,
    max_eigenvalue,
    rolling_horizon,
    x_step,
    y_step,
)
from ccmv.synthetic import factor_model_instance, monthly_returns_instance, random_psd_instance

from conftest import assert_feasible
from test_pd import kkt_linear_solve


def _report(num, name, ok, extra=""):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}{extra}")


@pytest.fixture(scope="module")
def sandwich_runs():
    """100 seeded small instances solved by both the oracle and the main solver."""
    runs = []
    for seed in range(100):
        n = 4 + seed % 7
        k = 1 + seed % 3
        spec = random_psd_instance(n=n, k=k, seed=seed)
        sol = ccmv_pd_solve(spec)
        res = brute_force_solve(spec)
        runs.append((spec, sol, res))
    return runs


def test_criterion_1_gap_formula_fidelity():
    ok = False
    try:
        pairs = [
            (0.0663, 0.0840, 0.0163),   # returns
            (0.0038, 0.0051, 0.0013),   # risks
            (1.0755, 1.1765, 0.0464),   # sharpe ratios
        ]
        for value, reference, printed in pairs:
            assert abs(gap(value, reference) - printed) <= 5e-5
        ok = True
    finally:
        _report(1, "gap-formula fidelity", ok)


def test_criterion_2_x_step_closed_form():
    ok = False
    try:
        rng = np.random.default_rng(2026)
        cases = 0
        for seed in range(50):
            n = int(rng.integers(2, 51))
            spec = random_psd_instance(n=n, k=max(1, n // 3), seed=seed)
            lam_max = max_eigenvalue(spec.A)
            for rho in (0.1, 1.0, 10.0, lam_max + 1.0):
                y = rng.normal(size=n)
                fact = build_factorization(spec, rho)
                x = x_step(fact, y)
                x_ref = kkt_linear_solve(spec, rho, y)
                assert np.abs(x - x_ref).max() <= 1e-8
                cases += 1
        assert cases == 200
        ok = True
    finally:
        _report(2, "closed-form x-step vs dense KKT solve, 200 cases", ok)


def _brute_force_sparse_distance(x, k):
    import itertools
    n = x.size
    best = np.inf
    for S in itertools.combinations(range(n), k):
        z = np.zeros(n)
        z[list(S)] = np.maximum(x[list(S)], 0.0)
        best = min(best, float(((x - z) ** 2).sum()))
    return best


def test_criterion_3_y_step_global_optimality():
    ok = False
    try:
        rng = np.random.default_rng(3)
        cases = 0
        while cases < 500:
            n = int(rng.integers(2, 9))
            for k in range(1, n + 1):
                if cases >= 500:
                    break
                x = rng.normal(size=n)
                y = y_step(x, k)
                assert y.min() >= 0.0 and np.count_nonzero(y) <= k
                d = float(((x - y) ** 2).sum())
                assert d == pytest.approx(_brute_force_sparse_distance(x, k), abs=1e-14)
                cases += 1
        ok = True
    finally:
        _report(3, "y-step equals brute-force minimum, 500 cases", ok)


def test_criterion_4_bcd_monotonicity():
    ok = False
    try:
        rng = np.random.default_rng(4)
        for seed in range(100):
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, n + 1))
            spec = random_psd_instance(n=n, k=k, seed=1000 + seed)
            y0 = y_step(rng.normal(size=n), k)
            rho = float(rng.uniform(0.5, 50.0))
            # bcd_inner raises on any violation; re-check the trace explicitly
            _, _, _, q_trace, _ = bcd_inner(spec, build_factorization(spec, rho), y0, SolverConfig())
            for a, b in zip(q_trace, q_trace[1:]):
                assert b <= a + 1e-9 * (1.0 + abs(b))
        ok = True
    finally:
        _report(4, "BCD penalty sequence non-increasing, 100 instances", ok)


def test_criterion_5_oracle_sandwich(sandwich_runs):
    ok = False
    matches = 0
    try:
        for spec, sol, res in sandwich_runs:
            assert_feasible(spec, sol.weights, sol.support)
            assert sol.kkt_residual <= 1e-6
            assert sol.objective >= res.objective - 1e-8
            assert sol.objective <= sol.upsilon + 1e-8
            if abs(sol.objective - res.objective) <= 1e-6:
                matches += 1
        ok = True
    finally:
        _report(5, "oracle sandwich on 100 instances", ok,
                f"  [global matches: {matches}/100, informational]")


def test_criterion_6_outer_convergence(sandwich_runs):
    ok = False
    try:
        converged = sum(1 for _, sol, _ in sandwich_runs
                        if sol.status == STATUS_CONVERGED)
        flagged = sum(1 for _, sol, _ in sandwich_runs
                      if sol.status not in (STATUS_CONVERGED,))
        assert all(len(sol.trace) <= 50 for _, sol, _ in sandwich_runs)
        assert converged + flagged == 100  # every run reports a status
        assert converged >= 95
        ok = True
    finally:
        _report(6, "outer loop convergence rate >= 95%", ok)


def test_criterion_7_padm_parity_and_speed():
    ok = False
    worst_rel = 0.0
    try:
        for seed in range(50):
            n = 4 + seed % 7
            k = 1 + seed % 3
            spec = monthly_returns_instance(n=n, k=k, seed=seed)
            sol_pd = ccmv_pd_solve(spec)
            sol_padm = ccmv_padm_solve(spec)
            assert_feasible(spec, sol_padm.weights, sol_padm.support)
            assert sol_padm.kkt_residual <= 1e-6
            rel = abs(sol_pd.objective - sol_padm.objective) / max(
                abs(sol_pd.objective), abs(sol_padm.objective), 1e-12)
            worst_rel = max(worst_rel, rel)
            assert rel <= 0.05
        for n in (226, 476):
            pd_times, padm_times = [], []
            for seed in range(3):
                spec = factor_model_instance(n=n, k=10, seed=seed)
                t0 = time.perf_counter()
                ccmv_pd_solve(spec)
                pd_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                ccmv_padm_solve(spec)
                padm_times.append(time.perf_counter() - t0)
            assert np.median(pd_times) < np.median(padm_times)
        ok = True
    finally:
        _report(7, "alternating-direction baseline parity and speed", ok,
                f"  [worst relative objective gap: {worst_rel:.2e}]")


def test_criterion_8_backtest_arithmetic():
    ok = False
    try:
        def constant_e1(spec, cfg):
            w = np.zeros(spec.n)
            w[0] = 1.0
            return Solution(weights=w, support=(0,), objective=0.0,
                            kkt=None, status=STATUS_CONVERGED)

        R = np.array([[0.05, 0.0], [0.02, 0.0], [0.1, 0.0], [-0.1, 0.0]])
        report = rolling_horizon(ReturnsMatrix(R, ("A", "B")),
                                 BacktestConfig(window=2, tau=0.5, k=1),
                                 solve_fn=constant_e1)
        assert report.mu_hat == 0.0
        assert report.sigma_hat ** 2 == pytest.approx(0.02, abs=1e-15)
        assert report.sharpe_hat == 0.0

        rng = np.random.default_rng(8)
        R = rng.normal(0.01, 0.05, size=(9, 3))
        R2 = R.copy()
        R2[-1] += 5.0
        cfg = BacktestConfig(window=4, tau=0.5, k=2)
        rep_a = rolling_horizon(ReturnsMatrix(R, ("A", "B", "C")), cfg)
        rep_b = rolling_horizon(ReturnsMatrix(R2, ("A", "B", "C")), cfg)
        for wa, wb in zip(rep_a.weights_by_window, rep_b.weights_by_window):
            np.testing.assert_array_equal(wa, wb)
        ok = True
    finally:
        _report(8, "backtest arithmetic and no look-ahead", ok)


def test_criterion_9_cardinality_hard_guarantee():
    ok = False
    try:
        solvers = [
            ("pd", lambda s: ccmv_pd_solve(s)),
            ("padm", lambda s: ccmv_padm_solve(s)),
            ("oracle", lambda s: brute_force_solve(s).to_solution()),
        ]
        for seed in range(10):
            n = 4 + seed % 6
            k = 1 + seed % 3
            spec = random_psd_instance(n=n, k=k, seed=3000 + seed)
            for _, solve in solvers:
                sol = solve(spec)
                assert_feasible(spec, sol.weights, sol.support)
                assert len(sol.support) <= k
                off = np.setdiff1d(np.arange(n), np.array(sol.support))
                assert np.all(np.asarray(sol.weights)[off] == 0.0)
        ok = True
    finally:
        _report(9, "hard sparsity on every reported portfolio", ok)
