import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccmv import (
    ProblemSpec,
    SolverConfig,
    make_feasible_point,
    STATUS_CONVERGED,
    bcd_inner,
    brute_force_solve,
    build_factorization,
    ccmv_pd_solve,
    kkt_check,
    objective_f,
    penalty_q,
    polish_support,
    x_step,
    y_step,
)
from ccmv.errors import BadSupport, NumericalBreakdown
from ccmv.oracle import restricted_qp_solve
from ccmv.pd import _project_simplex, dense_simplex_minimizer
from ccmv.synthetic import factor_model_instance, random_psd_instance

from conftest import assert_feasible


def kkt_linear_solve(spec, rho, y):
    """Dense equality-KKT reference for the x-step: assemble and solve directly."""
    n = spec.n
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = 2.0 * (spec.A + rho * np.eye(n))
    K[:n, n] = 1.0
    K[n, :n] = 1.0
    rhs = np.append(spec.tau * spec.mu + 2.0 * rho * np.asarray(y, dtype=float), 1.0)
    return np.linalg.solve(K, rhs)[:n]


class TestFactorization:
    def test_zero_matrix(self):
        spec = ProblemSpec(np.zeros((3, 3)), np.zeros(3), tau=1.0, k=1)
        fact = build_factorization(spec, rho=1.0)
        np.testing.assert_allclose(fact.s, np.ones(3))
        assert fact.ets == pytest.approx(3.0)

    def test_identity_n2(self):
        spec = ProblemSpec(np.eye(2), np.zeros(2), tau=1.0, k=1)
        fact = build_factorization(spec, rho=1.0)
        np.testing.assert_allclose(fact.s, [0.5, 0.5])
        assert fact.ets == pytest.approx(1.0)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            spec = random_psd_instance(n=6, k=2, seed=seed)
            rho = float(rng.uniform(0.5, 5.0))
            fact = build_factorization(spec, rho)
            L = np.tril(fact.chol[0])
            np.testing.assert_allclose(L @ L.T, spec.A + rho * np.eye(6), atol=1e-8)


class TestXStep:
    def test_point_on_hyperplane_fixed(self):
        spec = ProblemSpec(np.zeros((2, 2)), np.zeros(2), tau=1.0, k=1)
        fact = build_factorization(spec, 1.0)
        np.testing.assert_allclose(x_step(fact, spec, np.array([1.0, 0.0])),
                                   [1.0, 0.0], atol=1e-12)

    def test_symmetric_projection(self):
        spec = ProblemSpec(np.zeros((2, 2)), np.zeros(2), tau=1.0, k=1)
        fact = build_factorization(spec, 1.0)
        np.testing.assert_allclose(x_step(fact, spec, np.zeros(2)), [0.5, 0.5])

    def test_hand_solved_diag(self):
        # min a^2 + 3b^2 + (a^2+b^2) over a+b=1 gives a=2/3
        spec = ProblemSpec(np.diag([1.0, 3.0]), np.zeros(2), tau=1e-300, k=1)
        fact = build_factorization(spec, 1.0)
        np.testing.assert_allclose(x_step(fact, spec, np.zeros(2)),
                                   [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_budget_pinned(self):
        rng = np.random.default_rng(31)
        for seed in range(10):
            spec = random_psd_instance(n=8, k=3, seed=seed)
            fact = build_factorization(spec, 2.0)
            x = x_step(fact, spec, rng.normal(size=8))
            assert abs(x.sum() - 1.0) <= 1e-10

    def test_matches_dense_kkt_solve(self):
        rng = np.random.default_rng(37)
        for seed in range(10):
            spec = random_psd_instance(n=7, k=3, seed=seed)
            rho = float(rng.uniform(0.1, 10.0))
            fact = build_factorization(spec, rho)
            y = rng.normal(size=7)
            np.testing.assert_allclose(x_step(fact, spec, y),
                                       kkt_linear_solve(spec, rho, y), atol=1e-8)


class TestYStep:
    def test_clamp_and_keep(self):
        np.testing.assert_array_equal(y_step(np.array([0.5, 0.5, -1.0]), 2),
                                      [0.5, 0.5, 0.0])

    def test_keeps_largest(self):
        np.testing.assert_array_equal(y_step(np.array([0.3, -0.5, 0.4]), 1),
                                      [0.0, 0.0, 0.4])

    def test_all_negative(self):
        np.testing.assert_array_equal(y_step(np.array([-1.0, -2.0]), 1), [0.0, 0.0])

    def test_tie_keeps_lower_index(self):
        np.testing.assert_array_equal(y_step(np.array([0.4, 0.4, 0.4]), 2),
                                      [0.4, 0.4, 0.0])

    def test_k_geq_n_is_clamp(self):
        x = np.array([0.2, -0.1, 0.9])
        np.testing.assert_array_equal(y_step(x, 3), [0.2, 0.0, 0.9])

    def brute_min_dist(self, x, k):
        import itertools
        n = x.size
        best = np.inf
        for S in itertools.combinations(range(n), k):
            y = np.zeros(n)
            y[list(S)] = np.maximum(x[list(S)], 0.0)
            best = min(best, float(((x - y) ** 2).sum()))
        return best

    def test_global_optimality_small(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            x = rng.normal(size=n)
            y = y_step(x, k)
            assert np.count_nonzero(y) <= k
            assert y.min() >= 0.0
            d = float(((x - y) ** 2).sum())
            assert d == pytest.approx(self.brute_min_dist(x, k), abs=1e-12)


class TestBcdInner:
    def test_fixed_point_terminates_fast(self):
        # with A = 0 and mu = 0 the x-step returns y0 exactly, so y0 on the
        # hyperplane is a true fixed point of the alternation
        spec = ProblemSpec(np.zeros((3, 3)), np.zeros(3), tau=1.0, k=1)
        y0 = np.array([1.0, 0.0, 0.0])
        x, y, iters, q_trace, converged = bcd_inner(spec, 10.0, y0, SolverConfig())
        assert converged and iters <= 2
        assert np.flatnonzero(y).tolist() == [0]

    def test_support_retained(self, toy_spec):
        x, y, _, _, converged = bcd_inner(toy_spec, 10.0, np.array([1.0, 0, 0]),
                                          SolverConfig())
        assert converged
        assert np.flatnonzero(y).tolist() == [0]

    def test_q_trace_non_increasing_random(self):
        rng = np.random.default_rng(43)
        for seed in range(30):
            n = int(rng.integers(3, 9))
            spec = random_psd_instance(n=n, k=int(rng.integers(1, n)), seed=seed)
            y0 = y_step(rng.normal(size=n), spec.k)
            rho = float(rng.uniform(0.5, 20.0))
            _, _, _, q_trace, _ = bcd_inner(spec, rho, y0, SolverConfig())
            for a, b in zip(q_trace, q_trace[1:]):
                assert b <= a + 1e-9 * (1.0 + abs(b))

    def test_q_matches_direct_evaluation(self):
        spec = random_psd_instance(n=5, k=2, seed=9)
        x, y, _, q_trace, _ = bcd_inner(spec, 3.0, y_step(spec.mu, 2), SolverConfig())
        assert q_trace[-1] == pytest.approx(penalty_q(spec, 3.0, x, y), abs=1e-12)


class TestPolishSupport:
    def test_singleton(self, toy_spec):
        x, obj = polish_support(toy_spec, (0,))
        np.testing.assert_array_equal(x, [1.0, 0.0, 0.0])
        assert obj == pytest.approx(0.7)

    def test_symmetric_pair(self):
        spec = ProblemSpec(np.eye(3), np.zeros(3), tau=1e-300, k=2)
        x, obj = polish_support(spec, (0, 1))
        np.testing.assert_allclose(x, [0.5, 0.5, 0.0], atol=1e-12)
        assert obj == pytest.approx(0.5)

    def test_empty_support_rejected(self, toy_spec):
        with pytest.raises(BadSupport):
            polish_support(toy_spec, ())

    def test_iteration_guard_raises(self, monkeypatch):
        import ccmv.pd
        monkeypatch.setattr(ccmv.pd, "POLISH_STEPS_PER_ASSET", 0)
        with pytest.raises(NumericalBreakdown):
            polish_support(random_psd_instance(n=5, k=5, seed=0), range(5))

    def test_matches_oracle_restricted(self):
        for seed in range(20):
            spec = random_psd_instance(n=7, k=3, seed=seed)
            support = tuple(np.random.default_rng(seed).choice(7, size=3, replace=False))
            xp, fp = polish_support(spec, support)
            xo, fo = restricted_qp_solve(spec, support)
            assert fp == pytest.approx(fo, abs=1e-8)

    def test_full_support_below_dense_reference(self):
        spec = random_psd_instance(n=30, k=30, seed=2)
        x, obj = polish_support(spec, tuple(range(30)))
        assert abs(x.sum() - 1.0) <= 1e-8
        assert x.min() >= 0.0
        x_ref = dense_simplex_minimizer(spec, iters=5000)
        assert obj <= objective_f(spec, x_ref) + 1e-6

    @pytest.mark.parametrize("spec", [
        random_psd_instance(n=30, k=30, seed=2),
        random_psd_instance(n=60, k=60, seed=2),
        factor_model_instance(n=226, k=26, seed=0),
    ], ids=["psd30-full", "psd60-full", "factor226-top26mu"])
    def test_large_support_kkt_certified(self, spec):
        support = tuple(int(i) for i in np.flatnonzero(make_feasible_point(spec)))
        x, _ = polish_support(spec, support)
        assert_feasible(spec, x, support)
        assert kkt_check(spec, x, support).max_residual <= 1e-8


@st.composite
def degenerate_restricted_qps(draw):
    """A small instance with one of the degenerate structures, plus a support."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["rank-deficient", "duplicate", "tied-mu", "generic"]))
    tau = 10.0 ** draw(st.floats(-6.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, n)) if kind != "generic" else n
    scale = 10.0 ** draw(st.sampled_from([-2.0, 0.0]))  # -2: monthly-return volatilities
    G = scale * rng.standard_normal((n, rank))
    mu = rng.uniform(0.0, 0.2, size=n)
    if kind == "duplicate" and n >= 2:
        G[-1] = G[0]
        mu[-1] = mu[0]
    if kind == "tied-mu":
        mu[:] = mu[0]
    A = G @ G.T / rank  # no ridge: rank-deficient whenever rank < n
    spec = ProblemSpec(0.5 * (A + A.T), mu, tau=tau, k=n)
    size = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    support = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
    return spec, support


class TestPolishSupportProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(degenerate_restricted_qps())
    def test_matches_oracle_on_degenerate_inputs(self, case):
        spec, support = case
        x, fx = polish_support(spec, support)
        _, f_ref = restricted_qp_solve(spec, support)
        assert abs(fx - f_ref) <= 1e-9 * (1.0 + abs(f_ref))
        assert fx == objective_f(spec, x)
        assert x.min() >= 0.0
        assert_feasible(spec, x, support, k=len(support))
        assert kkt_check(spec, x, support).max_residual <= 1e-8


class TestProjectSimplex:
    def test_interior_point_fixed(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(_project_simplex(v), v, atol=1e-12)

    def test_matches_cvxpy_style_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            v = rng.normal(scale=2.0, size=int(rng.integers(1, 9)))
            p = _project_simplex(v)
            assert abs(p.sum() - 1.0) <= 1e-9
            assert p.min() >= 0.0
            # optimality: no feasible direction decreases distance
            for _ in range(20):
                q = _project_simplex(v + rng.normal(scale=0.1, size=v.size))
                assert ((v - p) ** 2).sum() <= ((v - q) ** 2).sum() + 1e-9


    def test_huge_entry_stays_on_simplex(self):
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(_project_simplex(np.array([1e17, 0.0, 0.0])),
                                          [1.0, 0.0, 0.0])

    def test_dense_minimizer_at_extreme_tau(self):
        # A = 0 makes the step 1e12, so the projected point carries entries near 1e17
        spec = ProblemSpec(np.zeros((3, 3)), np.array([0.05, 0.1, 0.02]), tau=1e6, k=2)
        np.testing.assert_array_equal(dense_simplex_minimizer(spec), [0.0, 1.0, 0.0])


class TestKktCheck:
    def test_global_optimum_clean(self, toy_spec):
        cert = kkt_check(toy_spec, np.array([1.0, 0.0, 0.0]), (0,))
        assert cert.beta == pytest.approx(-1.7)
        assert cert.max_residual <= 1e-10

    def test_perturbed_point_flagged(self):
        spec = ProblemSpec(np.eye(3), np.array([0.3, 0.2, 0.1]), tau=1.0, k=2)
        cert = kkt_check(spec, np.array([0.9, 0.1, 0.0]), (0, 1))
        assert cert.stationarity_residual > 1e-3

    def test_oracle_solutions_certified(self):
        for seed in range(20):
            spec = random_psd_instance(n=6, k=2, seed=seed)
            res = brute_force_solve(spec)
            cert = kkt_check(spec, res.x, res.support)
            assert cert.max_residual <= 1e-6


class TestCcmvPdSolve:
    def test_toy_matches_oracle(self, toy_spec):
        sol = ccmv_pd_solve(toy_spec)
        assert_feasible(toy_spec, sol.weights, sol.support)
        assert sol.objective == pytest.approx(0.7, abs=1e-9)
        assert sol.support == (0,)

    def test_rho0_raised_and_recorded(self, toy_spec):
        sol = ccmv_pd_solve(toy_spec, SolverConfig(rho0=0.1))
        assert sol.trace[0].rho >= 2.0 - 1e-9  # lambda_max(I) + 1
        assert "raised" in sol.trace[0].note

    def test_rho_schedule_geometric(self):
        spec = random_psd_instance(n=8, k=2, seed=4)
        sol = ccmv_pd_solve(spec, SolverConfig(zeta=10.0))
        rhos = [r.rho for r in sol.trace]
        for a, b in zip(rhos, rhos[1:]):
            assert b == pytest.approx(10.0 * a, rel=1e-12)

    def test_k_equals_n_matches_oracle(self):
        for seed in range(5):
            spec = random_psd_instance(n=6, k=6, seed=seed)
            sol = ccmv_pd_solve(spec)
            res = brute_force_solve(spec)
            assert sol.objective <= res.objective + 1e-6

    def test_objective_below_upsilon(self):
        for seed in range(10):
            spec = random_psd_instance(n=7, k=3, seed=seed)
            sol = ccmv_pd_solve(spec)
            assert sol.objective <= sol.upsilon + 1e-8

    def test_converged_infeasibility(self):
        spec = random_psd_instance(n=6, k=2, seed=11)
        sol = ccmv_pd_solve(spec)
        assert sol.status == STATUS_CONVERGED
        assert sol.trace[-1].infeas <= 1e-4
        assert sol.kkt_residual <= 1e-6

    def test_deterministic(self):
        spec = random_psd_instance(n=9, k=3, seed=13)
        s1 = ccmv_pd_solve(spec)
        s2 = ccmv_pd_solve(spec)
        np.testing.assert_array_equal(s1.weights, s2.weights)
        assert s1.objective == s2.objective

    def test_solution_dict_schema(self):
        sol = ccmv_pd_solve(random_psd_instance(n=5, k=2, seed=1))
        d = sol.to_dict()
        assert set(d) >= {"weights", "support", "objective", "kkt", "status", "trace"}
        assert set(d["kkt"]) == {"beta", "stationarity", "dual_violation", "complementarity"}
        assert all({"rho", "inner_iters", "q", "infeas"} <= set(r) for r in d["trace"])
