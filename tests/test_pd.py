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
    max_eigenvalue,
    objective_f,
    penalty_q,
    polish_support,
    x_step,
    y_step,
)
from ccmv import pd
from ccmv.errors import BadSupport, MeritMismatch, NumericalBreakdown
from ccmv.model import validate_problem
from ccmv.oracle import restricted_qp_solve
from ccmv.pd import _project_simplex, dense_simplex_minimizer
from ccmv.synthetic import (
    factor_model_instance,
    monthly_returns_instance,
    random_psd_instance,
)

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

    @pytest.mark.parametrize("big_rho", [False, True])
    def test_cached_columns_match_dense_kkt_solve(self, big_rho):
        spec = factor_model_instance(226, 10, seed=0)
        rho = 1e4 if big_rho else validate_problem(spec) + 1.0
        rng = np.random.default_rng(47)

        def sparse_y(support):
            y = np.zeros(spec.n)
            y[list(support)] = rng.dirichlet(np.ones(len(support)))
            return y

        first = sparse_y(range(10))
        # (y, cached columns after the call): misses on first use, hits after
        sequence = [
            (first, 10),
            (sparse_y(range(5, 15)), 15),        # overlaps the cached support
            (sparse_y(range(100, 110)), 25),     # disjoint from it
            (first, 25),                         # repeated support
            (sparse_y(range(10)), 25),           # same support, new values
            (np.zeros(spec.n), 25),              # y = 0
            (rng.uniform(size=spec.n), 25),      # dense: one full backsolve
        ]
        fact = build_factorization(spec, rho)
        for y, cached in sequence:
            x = x_step(fact, spec, y)
            assert fact.cols.shape[0] == cached
            np.testing.assert_allclose(x, kkt_linear_solve(spec, rho, y), rtol=0, atol=1e-10)
            fresh = x_step(build_factorization(spec, rho), spec, y)
            np.testing.assert_allclose(x, fresh, rtol=0, atol=1e-15)


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

    @pytest.mark.parametrize("kind", ["random", "rank_deficient", "scale"])
    @pytest.mark.parametrize("rho", ["floor", 1e4, 1e6])
    def test_merit_matches_penalty_q_every_iteration(self, monkeypatch, kind, rho):
        pairs = []

        def recording_y_step(x, k):
            y = y_step(x, k)
            pairs.append((x, y))
            return y

        monkeypatch.setattr(pd, "y_step", recording_y_step)
        for seed in range(3):
            if kind == "random":
                spec = random_psd_instance(n=12, k=4, seed=seed)
            elif kind == "rank_deficient":  # estimation window shorter than the asset count
                spec = monthly_returns_instance(60, 6, seed=seed, periods=30)
            else:
                spec = factor_model_instance(226, 10, seed=seed)
            r = validate_problem(spec) + 1.0 if rho == "floor" else rho
            pairs.clear()
            y0 = y_step(dense_simplex_minimizer(spec), spec.k)
            _, _, iters, q_trace, _ = bcd_inner(spec, r, y0, SolverConfig())
            assert len(pairs) == len(q_trace) == iters
            for q, (x, y) in zip(q_trace, pairs):
                exact = penalty_q(spec, r, x, y)
                assert abs(q - exact) <= 1e-12 * (1.0 + abs(exact))

    def test_wrong_x_step_raises_merit_mismatch(self, monkeypatch):
        spec = factor_model_instance(40, 5, seed=3)
        shift = np.zeros(spec.n)
        shift[:2] = [1e-3, -1e-3]  # stays on the budget hyperplane
        exact_step = pd.x_step
        monkeypatch.setattr(pd, "x_step", lambda fact, spec, y: exact_step(fact, spec, y) + shift)
        y0 = y_step(dense_simplex_minimizer(spec), spec.k)
        with pytest.raises(MeritMismatch):
            bcd_inner(spec, 10.0, y0, SolverConfig())


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
        # independent reference: 5000 projected-gradient steps from the barycentre
        step = 1.0 / (2.0 * max_eigenvalue(spec.A) + 1e-12)
        x_ref = np.full(spec.n, 1.0 / spec.n)
        for _ in range(5000):
            x_prev = x_ref
            x_ref = _project_simplex(x_prev - step * (2.0 * (spec.A @ x_prev) - spec.tau * spec.mu))
            if np.abs(x_ref - x_prev).max() <= 1e-12:
                break
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
        # A = 0 and tau * mu near 1e5: the seed is the single best-mu vertex, exactly
        spec = ProblemSpec(np.zeros((3, 3)), np.array([0.05, 0.1, 0.02]), tau=1e6, k=2)
        np.testing.assert_array_equal(dense_simplex_minimizer(spec), [0.0, 1.0, 0.0])


class TestDenseSimplexMinimizer:
    @pytest.mark.parametrize("make, args", [
        (factor_model_instance, (1000, 10)),
        (factor_model_instance, (226, 10)),
        (monthly_returns_instance, (100, 10)),  # 60 periods: rank-deficient A
    ], ids=["factor1000", "factor226", "monthly100"])
    def test_kkt_certified_on_full_support(self, make, args):
        spec = make(*args, seed=0)
        x = dense_simplex_minimizer(spec)
        assert abs(x.sum() - 1.0) <= 1e-12
        assert x.min() >= 0.0
        assert kkt_check(spec, x, range(spec.n)).max_residual <= 1e-8


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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_worse_than_polished_seed(self, seed):
        spec = factor_model_instance(476, 10, seed=seed)
        y = y_step(dense_simplex_minimizer(spec), spec.k)
        _, f_seed = polish_support(spec, np.flatnonzero(y))
        sol = ccmv_pd_solve(spec)
        assert sol.objective <= f_seed
        assert sol.objective <= sol.upsilon

    def test_polish_calls_are_k_sparse(self, monkeypatch):
        # benchmark/run.py books 2^|S| - 1 patterns per pd.polish_support call,
        # so the dense seed must reach the kernel without going through it
        supports = []
        polish = pd.polish_support

        def recording_polish(spec, support):
            supports.append(tuple(support))
            return polish(spec, support)

        monkeypatch.setattr(pd, "polish_support", recording_polish)
        spec = factor_model_instance(226, 10, seed=0)
        ccmv_pd_solve(spec)
        assert 1 <= len(supports) <= 2
        assert all(len(support) <= spec.k for support in supports)

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
