import numpy as np
import pytest

from ccmv import (
    BacktestConfig,
    ProblemSpec,
    ReturnsMatrix,
    Solution,
    STATUS_CONVERGED,
    gap,
    in_sample_stats,
    rolling_horizon,
)
from ccmv.errors import (
    BadConfig,
    MonotonicityViolation,
    NotPSD,
    SharpeUndefined,
    SigmaUndefined,
)


def constant_weights_solver(weights):
    w = np.asarray(weights, dtype=float)

    def solve(spec, cfg):
        support = tuple(int(i) for i in np.flatnonzero(w))
        return Solution(weights=w.copy(), support=support, objective=0.0,
                        kkt=None, status=STATUS_CONVERGED)
    return solve


class TestInSampleStats:
    def test_hand_values(self):
        spec = ProblemSpec(np.eye(2), np.array([0.2, 0.0]), tau=1.0, k=1)
        ret, risk, sharpe = in_sample_stats(spec, np.array([1.0, 0.0]))
        assert (ret, risk, sharpe) == (0.2, 1.0, 0.2)

    def test_risk_is_variance_not_stdev(self):
        spec = ProblemSpec(4.0 * np.eye(1), np.array([0.1]), tau=1.0, k=1)
        ret, risk, sharpe = in_sample_stats(spec, np.array([1.0]))
        assert risk == 4.0
        assert sharpe == pytest.approx(0.1 / 2.0)

    def test_zero_risk_nonzero_return(self):
        spec = ProblemSpec(np.zeros((1, 1)), np.array([0.1]), tau=1.0, k=1)
        with pytest.raises(SharpeUndefined):
            in_sample_stats(spec, np.array([1.0]))

    def test_all_zero_degenerate(self):
        spec = ProblemSpec(np.zeros((1, 1)), np.array([0.0]), tau=1.0, k=1)
        assert in_sample_stats(spec, np.array([1.0])) == (0.0, 0.0, 0.0)

    def test_budget_enforced(self):
        spec = ProblemSpec(np.eye(2), np.zeros(2), tau=1.0, k=1)
        with pytest.raises(BadConfig):
            in_sample_stats(spec, np.array([0.9, 0.0]))


class TestGap:
    def test_zero_reference(self):
        assert gap(0.3, 0.0) == pytest.approx(0.3)

    def test_exact_match(self):
        assert gap(1.5, 1.5) == 0.0

    def test_symmetric_in_sign_of_error(self):
        assert gap(1.1, 1.0) == pytest.approx(gap(0.9, 1.0))

    def test_hand_value(self):
        assert gap(0.0663, 0.0840) == pytest.approx(0.0177 / 1.084)


class TestRollingHorizon:
    def test_hand_example(self):
        # constant e1 weights; rows 2 and 3 realize 0.1 and -0.1
        R = np.array([[0.05, 0.0], [0.02, 0.0], [0.1, 0.0], [-0.1, 0.0]])
        returns = ReturnsMatrix(R, ("A", "B"))
        cfg = BacktestConfig(window=2, tau=0.5, k=1)
        report = rolling_horizon(returns, cfg,
                                 solve_fn=constant_weights_solver([1.0, 0.0]))
        assert report.oos_returns == [pytest.approx(0.1), pytest.approx(-0.1)]
        assert report.mu_hat == 0.0
        assert report.sigma_hat == pytest.approx(np.sqrt(0.02))
        assert report.sigma_hat ** 2 == pytest.approx(0.02)
        assert report.sharpe_hat == 0.0

    def test_window_count(self):
        rng = np.random.default_rng(97)
        R = rng.normal(0.01, 0.05, size=(10, 3))
        returns = ReturnsMatrix(R, ("A", "B", "C"))
        cfg = BacktestConfig(window=4, tau=0.5, k=2)
        report = rolling_horizon(returns, cfg,
                                 solve_fn=constant_weights_solver([0.5, 0.5, 0.0]))
        assert len(report.oos_returns) == 6
        assert len(report.weights_by_window) == 6

    def test_no_look_ahead(self):
        # perturbing the final row must not change any weights before it
        rng = np.random.default_rng(101)
        R = rng.normal(0.01, 0.05, size=(9, 3))
        returns_a = ReturnsMatrix(R, ("A", "B", "C"))
        R2 = R.copy()
        R2[-1] += 10.0
        returns_b = ReturnsMatrix(R2, ("A", "B", "C"))
        cfg = BacktestConfig(window=4, tau=0.5, k=2)
        rep_a = rolling_horizon(returns_a, cfg)
        rep_b = rolling_horizon(returns_b, cfg)
        for wa, wb in zip(rep_a.weights_by_window, rep_b.weights_by_window):
            np.testing.assert_array_equal(wa, wb)
        # only the final realized return may differ
        assert rep_a.oos_returns[:-1] == rep_b.oos_returns[:-1]
        assert rep_a.oos_returns[-1] != rep_b.oos_returns[-1]

    def test_solver_failure_carries_weights_forward(self):
        calls = {"n": 0}

        def flaky(spec, cfg):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NotPSD("window 2 has a negative eigenvalue")
            return constant_weights_solver([1.0, 0.0])(spec, cfg)

        rng = np.random.default_rng(103)
        returns = ReturnsMatrix(rng.normal(0.0, 0.05, size=(7, 2)), ("A", "B"))
        cfg = BacktestConfig(window=3, tau=0.5, k=1)
        report = rolling_horizon(returns, cfg, solve_fn=flaky)
        assert report.failed_windows == [4]
        np.testing.assert_array_equal(report.weights_by_window[1],
                                      report.weights_by_window[0])

    @pytest.mark.parametrize("exc", [MonotonicityViolation("q increased"),
                                     RuntimeError("solver crashed")])
    def test_solver_fault_propagates(self, exc):
        # only a rejected instance is carried forward; a solver fault is raised
        calls = {"n": 0}

        def faulty(spec, cfg):
            calls["n"] += 1
            if calls["n"] == 2:
                raise exc
            return constant_weights_solver([1.0, 0.0])(spec, cfg)

        rng = np.random.default_rng(103)
        returns = ReturnsMatrix(rng.normal(0.0, 0.05, size=(7, 2)), ("A", "B"))
        with pytest.raises(type(exc)):
            rolling_horizon(returns, BacktestConfig(window=3, tau=0.5, k=1), solve_fn=faulty)

    def test_too_few_oos_periods(self):
        rng = np.random.default_rng(107)
        returns = ReturnsMatrix(rng.normal(size=(4, 2)), ("A", "B"))
        with pytest.raises(SigmaUndefined):
            rolling_horizon(returns, BacktestConfig(window=3, tau=0.5, k=1),
                            solve_fn=constant_weights_solver([1.0, 0.0]))

    def test_window_too_long(self):
        rng = np.random.default_rng(109)
        returns = ReturnsMatrix(rng.normal(size=(4, 2)), ("A", "B"))
        with pytest.raises(BadConfig):
            rolling_horizon(returns, BacktestConfig(window=5, tau=0.5, k=1),
                            solve_fn=constant_weights_solver([1.0, 0.0]))

    def test_end_to_end_with_real_solver(self):
        rng = np.random.default_rng(113)
        R = 0.01 + 0.04 * rng.standard_normal((12, 4))
        returns = ReturnsMatrix(R, ("A", "B", "C", "D"))
        cfg = BacktestConfig(window=6, tau=0.5, k=2, solver_kind="pd")
        report = rolling_horizon(returns, cfg)
        assert len(report.oos_returns) == 6
        for w in report.weights_by_window:
            assert abs(w.sum() - 1.0) <= 1e-8
            assert np.count_nonzero(w) <= 2

    def test_report_dict(self):
        rng = np.random.default_rng(127)
        returns = ReturnsMatrix(rng.normal(0.0, 0.05, size=(6, 2)), ("A", "B"))
        cfg = BacktestConfig(window=3, tau=0.5, k=1)
        report = rolling_horizon(returns, cfg,
                                 solve_fn=constant_weights_solver([1.0, 0.0]))
        d = report.to_dict()
        assert set(d) == {"weights_by_window", "oos_returns", "mu_hat", "sigma_hat",
                          "sharpe_hat", "in_sample", "failed_windows"}
