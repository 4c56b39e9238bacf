import numpy as np
import pytest
import scipy.linalg

from ccmv import (
    ProblemSpec,
    ReturnsMatrix,
    SolverConfig,
    ccmv_pd_solve,
    estimate_moments,
    make_feasible_point,
    max_eigenvalue,
    objective_f,
    penalty_q,
    validate_problem,
)
from ccmv.errors import (
    AsymmetricA,
    BadConfig,
    BadData,
    BadDimension,
    BadK,
    BadTau,
    InsufficientData,
    NotPSD,
)
from ccmv.model import EIGVALSH_MAX_N
from ccmv.synthetic import factor_model_instance, monthly_returns_instance

from conftest import dense


class TestFrozenInputs:
    def test_spec_freezes_a_copy_not_the_callers_arrays(self):
        A, mu = 2.0 * np.eye(3), np.array([0.1, 0.2, 0.3])
        spec = ProblemSpec(A, mu, tau=1.0, k=2)
        A[0, 0] = 5.0  # the caller can still write into its own arrays
        mu[0] = 0.9
        assert spec.A[0, 0] == 2.0 and spec.mu[0] == 0.1
        with pytest.raises(ValueError):
            spec.A[0, 0] = 1.0
        with pytest.raises(ValueError):
            spec.mu[0] = 1.0

    def test_returns_freeze_a_copy_not_the_callers_array(self):
        R = np.array([[0.01, 0.02], [0.03, -0.01]])
        returns = ReturnsMatrix(R, ("A", "B"))
        R[0, 0] = 0.5
        assert returns.values[0, 0] == 0.01
        with pytest.raises(ValueError):
            returns.values[0, 0] = 0.0

    def test_read_only_input_is_not_copied(self):
        A = np.eye(2)
        A.setflags(write=False)
        R = np.ones((2, 2))
        R.setflags(write=False)
        assert ProblemSpec(A, np.zeros(2), tau=1.0, k=1).A is A
        assert ReturnsMatrix(R, ("A", "B")).values is R


class TestReturnsMatrix:
    def test_single_period_rejected(self):
        with pytest.raises(InsufficientData):
            ReturnsMatrix(np.array([[0.1, 0.2]]), ("A", "B"))

    def test_nan_rejected(self):
        with pytest.raises(BadData):
            ReturnsMatrix(np.array([[0.1], [np.nan]]), ("A",))

    def test_ticker_mismatch(self):
        with pytest.raises(BadDimension):
            ReturnsMatrix(np.array([[0.1, 0.2], [0.0, 0.1]]), ("A",))


class TestEstimateMoments:
    def test_two_periods_one_asset(self):
        rm = ReturnsMatrix(np.array([[0.1], [0.3]]), ("A",))
        est = estimate_moments(rm)
        assert est.mu[0] == pytest.approx(0.2)
        assert est.A[0, 0] == pytest.approx(0.02)

    def test_constant_column_zero_variance(self):
        rm = ReturnsMatrix(np.array([[0.1, 0.0], [0.1, 0.2], [0.1, 0.1]]), ("A", "B"))
        est = estimate_moments(rm)
        assert est.A[0, 0] == pytest.approx(0.0, abs=1e-30)

    def test_duplicated_column_rank_one(self):
        rng = np.random.default_rng(3)
        col = rng.normal(size=5)
        rm = ReturnsMatrix(np.column_stack([col, col]), ("A", "B"))
        est = estimate_moments(rm)
        assert est.A[0, 1] == pytest.approx(est.A[0, 0])
        assert np.linalg.matrix_rank(est.A, tol=1e-12) == 1

    def test_covariance_psd_random_directions(self):
        rng = np.random.default_rng(11)
        rm = ReturnsMatrix(rng.normal(0.01, 0.05, size=(12, 5)),
                           tuple("ABCDE"))
        est = estimate_moments(rm)
        for _ in range(100):
            v = rng.standard_normal(5)
            assert v @ est.A @ v >= -1e-10

    def test_wide_window_in_factor_form(self):
        # 20 periods of 100 assets: rank below 20, small beside n
        R = np.random.default_rng(5).normal(0.01, 0.05, size=(20, 100))
        est = estimate_moments(ReturnsMatrix(R, tuple(f"A{i}" for i in range(100))))
        assert est.cov.factored and est.cov.G.shape == (100, 20) and not est.cov.d.any()
        C = R - R.mean(axis=0)
        ref = C.T @ C / 19
        assert np.abs(est.A - ref).max() <= 1e-15 * np.abs(ref).max()
        spec = ProblemSpec(cov=est.cov, mu=est.mu, tau=0.5, k=5)
        assert spec.cov.factored and validate_problem(spec) == pytest.approx(np.linalg.eigvalsh(ref)[-1])

    def test_window_of_the_backtest_shape_stays_dense(self):
        # 60 periods of 100 assets: above the rank ratio, the same A as ever
        R = np.random.default_rng(6).normal(0.01, 0.05, size=(60, 100))
        est = estimate_moments(ReturnsMatrix(R, tuple(f"A{i}" for i in range(100))))
        C = R - R.mean(axis=0)
        A = C.T @ C / 59
        assert not est.cov.factored
        assert np.array_equal(est.A, 0.5 * (A + A.T))
        assert np.array_equal(est.mu, R.mean(axis=0))

    @pytest.mark.parametrize("periods", [2, 3])  # factor form, then dense
    def test_overflowing_covariance_rejected(self, periods):
        R = np.zeros((periods, 8))
        R[0, 0], R[1, 0] = 1.7e308, -1.7e308
        with np.errstate(over="ignore"), pytest.raises(BadData, match="overflows"):
            estimate_moments(ReturnsMatrix(R, tuple("ABCDEFGH")))

    @pytest.mark.parametrize("periods, factored", [(2, True), (3, False)])
    def test_form_switches_at_the_rank_ratio(self, periods, factored):
        R = np.random.default_rng(7).normal(size=(periods, 8))
        assert estimate_moments(ReturnsMatrix(R, tuple("ABCDEFGH"))).cov.factored == factored


class TestValidateProblem:
    def test_identity_ok(self):
        validate_problem(ProblemSpec(np.eye(2), np.zeros(2), tau=0.5, k=1))

    def test_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            validate_problem(ProblemSpec(np.diag([1.0, -0.1]), np.zeros(2), tau=0.5, k=1))

    def test_k_too_large(self):
        with pytest.raises(BadK):
            validate_problem(ProblemSpec(np.eye(2), np.zeros(2), tau=0.5, k=3))

    def test_asymmetric(self):
        A = np.array([[1.0, 0.2], [0.1, 1.0]])
        for M in (A, A.T):
            with pytest.raises(AsymmetricA):
                validate_problem(ProblemSpec(M, np.zeros(2), tau=0.5, k=1))
        # the scale is the largest |entry|, here a negative one: an asymmetry
        # of 1e-7 is round-off at scale 1e6 (the matrix then fails as not PSD),
        # one of 1e-5 is not
        big = np.array([[1.0, -1e6], [-1e6 + 1e-7, 1.0]])
        for M in (big, big.T):
            with pytest.raises(NotPSD):
                validate_problem(ProblemSpec(M, np.zeros(2), tau=0.5, k=1))
        big = np.array([[1.0, -1e6], [-1e6 + 1e-5, 1.0]])
        for M in (big, big.T):
            with pytest.raises(AsymmetricA):
                validate_problem(ProblemSpec(M, np.zeros(2), tau=0.5, k=1))

    def test_bad_tau(self):
        with pytest.raises(BadTau):
            validate_problem(ProblemSpec(np.eye(2), np.zeros(2), tau=0.0, k=1))

    @pytest.mark.parametrize("spec", [
        factor_model_instance(226, 10, seed=0),
        monthly_returns_instance(100, 10, seed=0),  # rank-deficient
        factor_model_instance(1000, 10, seed=0),
    ], ids=["factor-226", "monthly-100", "factor-1000"])
    def test_returns_top_eigenvalue(self, spec):
        top = np.linalg.eigvalsh(spec.A)[-1]
        if spec.n <= EIGVALSH_MAX_N:  # one eigvalsh answers both questions
            assert validate_problem(spec) == top
        else:  # Lanczos stops at round-off
            assert validate_problem(spec) == pytest.approx(top, rel=1e-12)


def _with_spectrum(evals, seed=0) -> np.ndarray:
    """Symmetric matrix Q diag(evals) Q' for a seeded random orthogonal Q."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(evals), len(evals))))
    A = (Q * evals) @ Q.T
    return 0.5 * (A + A.T)


class TestValidateProblemAboveCrossover:
    N = 300  # Lanczos for lambda_max, one shifted Cholesky for the PSD test

    def spec(self, A):
        assert A.shape[0] > EIGVALSH_MAX_N
        return ProblemSpec(A, np.linspace(0.0, 0.1, A.shape[0]), tau=0.5, k=10)

    def spectrum(self, lam_min):
        return np.concatenate(([lam_min], np.linspace(0.0, 2.0, self.N - 1)))

    def test_small_negative_eigenvalue_rejected(self):
        # the PSD bound is -PSD_TOL * lambda_max = -2e-10
        with pytest.raises(NotPSD):
            validate_problem(self.spec(_with_spectrum(self.spectrum(-1e-8 * 2.0))))

    def test_round_off_negative_eigenvalue_admitted(self):
        A = _with_spectrum(self.spectrum(-1e-12 * 2.0))
        assert validate_problem(self.spec(A)) == pytest.approx(2.0, rel=1e-12)

    def test_rank_deficient_sample_covariance_admitted(self):
        spec = monthly_returns_instance(self.N, 10, seed=0, periods=60)  # rank 59
        assert validate_problem(spec) == pytest.approx(np.linalg.eigvalsh(spec.A)[-1], rel=1e-12)

    def test_negative_definite_rejected(self):
        G = np.random.default_rng(1).standard_normal((self.N, self.N))
        with pytest.raises(NotPSD):
            validate_problem(self.spec(-(G @ G.T / self.N + np.eye(self.N))))

    def test_independent_of_global_random_state(self):
        spec = factor_model_instance(self.N, 10, seed=0)
        np.random.seed(1)
        first = validate_problem(spec)
        np.random.seed(2)
        np.random.standard_normal(self.N)
        assert validate_problem(spec) == first

    def test_pd_solve_without_dense_eigensolvers(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
        sol = ccmv_pd_solve(dense(factor_model_instance(1000, 10, seed=0)))
        assert sol.kkt_residual <= 1e-8


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.zeta == 10.0 and cfg.eps_inner == 1e-4

    @pytest.mark.parametrize("kwargs", [
        {"rho0": 0.0}, {"zeta": 1.0}, {"eps_inner": 0.0},
        {"max_outer": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(BadConfig):
            SolverConfig(**kwargs)


class TestMaxEigenvalue:
    def test_diagonal(self):
        assert max_eigenvalue(np.diag([1.0, 3.0])) == pytest.approx(3.0, rel=1e-8)

    def test_identity(self):
        assert max_eigenvalue(np.eye(7)) == pytest.approx(1.0, rel=1e-8)

    def test_rank_one(self):
        v = np.array([1.0, 2.0, 1.0, 1.0])  # ||v||^2 = 7
        assert max_eigenvalue(np.outer(v, v)) == pytest.approx(7.0, rel=1e-8)

    def test_rayleigh_lower_bound(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((8, 8))
        A = G @ G.T
        lam = max_eigenvalue(A)
        for _ in range(100):
            x = rng.standard_normal(8)
            assert lam >= (x @ A @ x) / (x @ x) * (1 - 1e-8)

    def test_ones_orthogonal_to_top_eigenvector(self):
        # top eigenvector has zero overlap with the all-ones start
        v = np.array([1.0, -1.0]) / np.sqrt(2)
        A = 5.0 * np.outer(v, v) + np.eye(2)
        assert max_eigenvalue(A) == pytest.approx(6.0, rel=1e-6)

    def test_negative_definite(self):
        # the largest eigenvalue, not the largest in magnitude
        assert max_eigenvalue(np.diag([-1.0, -3.0, -2.0])) == pytest.approx(-1.0, rel=1e-12)

    def test_one_by_one_and_zero(self):
        assert max_eigenvalue(np.array([[2.5]])) == 2.5
        assert max_eigenvalue(np.zeros((4, 4))) == 0.0

    def test_uniform_spectrum(self):
        # no gap at the top: the Ritz value takes about 160 steps to settle
        assert max_eigenvalue(np.diag(np.linspace(0.0, 1.0, 400))) == pytest.approx(1.0, rel=1e-12)

    def test_nearly_tied_top_eigenvalues(self):
        # the top two eigenvalues differ by a relative 1.6e-4, which power
        # iteration needs about 113k steps to resolve
        A = factor_model_instance(1000, 10, seed=9800002).A
        assert max_eigenvalue(A) == pytest.approx(np.linalg.eigvalsh(A)[-1], rel=1e-12)


class TestMakeFeasiblePoint:
    def test_top_k_selection(self):
        spec = ProblemSpec(np.eye(5), np.array([0.3, 0.1, 0.2, 0.05, 0.0]), tau=1.0, k=2)
        np.testing.assert_array_equal(make_feasible_point(spec),
                                      [0.5, 0.0, 0.5, 0.0, 0.0])

    def test_k_equals_n_uniform(self):
        spec = ProblemSpec(np.eye(4), np.arange(4.0), tau=1.0, k=4)
        np.testing.assert_allclose(make_feasible_point(spec), 0.25)

    def test_tie_breaks_to_lowest_index(self):
        spec = ProblemSpec(np.eye(3), np.full(3, 0.1), tau=1.0, k=1)
        np.testing.assert_array_equal(make_feasible_point(spec), [1.0, 0.0, 0.0])

    def test_always_feasible(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, n + 1))
            spec = ProblemSpec(np.eye(n), rng.normal(size=n), tau=1.0, k=k)
            x = make_feasible_point(spec)
            assert abs(x.sum() - 1.0) <= 1e-12
            assert x.min() >= 0.0
            assert np.count_nonzero(x) <= k


class TestObjectiveAndPenalty:
    def test_hand_value(self):
        spec = ProblemSpec(np.eye(3), np.array([0.3, 0.2, 0.1]), tau=1.0, k=1)
        assert objective_f(spec, np.array([1.0, 0, 0])) == pytest.approx(0.7)

    def test_zero_vector(self):
        spec = ProblemSpec(np.eye(2), np.array([0.1, 0.2]), tau=1.0, k=1)
        assert objective_f(spec, np.zeros(2)) == 0.0

    def test_tau_zero_symmetric(self):
        spec = ProblemSpec(np.eye(2), np.array([0.1, 0.2]), tau=1e-300, k=2)
        assert objective_f(spec, np.array([0.5, 0.5])) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        spec = ProblemSpec(np.eye(2), np.zeros(2), tau=1.0, k=1)
        with pytest.raises(BadDimension):
            objective_f(spec, np.zeros(3))

    def test_penalty_equals_objective_on_diagonal(self):
        rng = np.random.default_rng(23)
        G = rng.standard_normal((4, 4))
        spec = ProblemSpec(G @ G.T, rng.normal(size=4), tau=0.7, k=2)
        for _ in range(20):
            x = rng.standard_normal(4)
            assert penalty_q(spec, 3.0, x, x) == objective_f(spec, x)

    @pytest.mark.parametrize("nnz", [0, 1, 10, 100, 101, 400])
    def test_support_evaluation_matches_dense(self, nnz):
        # a k-sparse x, a dense x and the zero x by the one product with A, against the formed A
        spec = factor_model_instance(400, 10, seed=3)
        rng = np.random.default_rng(nnz)
        x = np.zeros(spec.n)
        x[rng.choice(spec.n, nnz, replace=False)] = rng.dirichlet(np.ones(nnz)) if nnz else []
        dense = float(x @ (spec.A @ x) - spec.tau * (spec.mu @ x))
        assert abs(objective_f(spec, x) - dense) <= 1e-15 * (1.0 + abs(dense))

    def test_penalty_hand_value(self):
        spec = ProblemSpec(np.zeros((2, 2)), np.zeros(2), tau=1.0, k=1)
        assert penalty_q(spec, 2.0, np.array([1.0, 0]), np.zeros(2)) == pytest.approx(2.0)

    def test_penalty_linear_in_rho(self):
        rng = np.random.default_rng(29)
        spec = ProblemSpec(np.eye(3), rng.normal(size=3), tau=0.5, k=1)
        x, y = rng.normal(size=3), rng.normal(size=3)
        d2 = float((x - y) @ (x - y))
        q1 = penalty_q(spec, 2.0, x, y)
        q2 = penalty_q(spec, 4.0, x, y)
        assert q2 - q1 == pytest.approx(2.0 * d2)
