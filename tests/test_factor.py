"""The factor-form covariance A = G G' + diag(d): operator parity, the solvers on it, its limits."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccmv import (
    ProblemSpec,
    brute_force_solve,
    build_factorization,
    ccmv_padm_solve,
    ccmv_pd_solve,
    in_sample_stats,
    kkt_check,
    objective_f,
    penalty_q,
    validate_problem,
    x_step,
)
from ccmv import model
from ccmv.errors import BadData, BadDimension
from ccmv.model import FACTOR_RANK_RATIO, DenseCovariance, FactorCovariance
from ccmv.synthetic import factor_model_instance, monthly_returns_instance, random_psd_instance

from conftest import assert_feasible, dense


@st.composite
def factor_specs(draw, max_n=12):
    """A small factor-form spec, read through its factors at any rank.

    Rank-deficient with d = 0, duplicate rows of G, a zero column of G,
    non-constant d (some entries 0), or generic; tau from 1e-6 to 1e6 and
    k = 1 or k = n.
    """
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, n + 2))
    kind = draw(st.sampled_from(["rank-deficient", "duplicate", "zero-column", "varying-d", "generic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([-2.0, 0.0]))  # -2: monthly-return volatilities
    G = scale * rng.standard_normal((n, m))
    d = np.full(n, 0.01 * scale**2)
    if kind == "rank-deficient":
        d[:] = 0.0
    elif kind == "duplicate" and n >= 2:
        G[-1] = G[0]
    elif kind == "zero-column":
        G[:, draw(st.integers(0, m - 1))] = 0.0
    elif kind == "varying-d":
        d = scale**2 * rng.uniform(0.0, 1.0, n)
        d[::2] = 0.0
    tau = 10.0 ** draw(st.floats(-6.0, 6.0))
    k = draw(st.sampled_from([1, n]))
    return ProblemSpec(cov=FactorCovariance(G, d), mu=rng.uniform(0.0, 0.2, n), tau=tau, k=k)


def close(a, b, scale, rtol=1e-12):
    assert np.abs(np.asarray(a) - np.asarray(b)).max() <= rtol * scale


class TestOperatorParity:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(factor_specs())
    def test_matches_dense_form(self, spec):
        ds = dense(spec)
        A, n, k = ds.A, spec.n, spec.k
        assert spec.cov.factored and not ds.cov.factored
        rng = np.random.default_rng(n * 31 + k)
        S = np.sort(rng.choice(n, k, replace=False))
        z = rng.dirichlet(np.ones(k))
        x = rng.standard_normal(n)
        size = max(np.abs(A).max(), np.finfo(float).tiny)
        close(spec.cov.diag(np.arange(n)), np.diag(A), size)
        rows = spec.cov.row_reader(S)
        for j in range(k):
            close(rows(np.array([j])), A[S[j], S][None], size)
        close(rows(np.arange(k)), A[np.ix_(S, S)], size)
        xs = np.abs(x).sum()
        close(spec.cov.matvec(x), A @ x, size * xs)
        close(spec.cov.quad(x), x @ A @ x, size * xs * xs)
        f = objective_f(ds, x)
        close(objective_f(spec, x), f, 1.0 + abs(f) + size * xs * xs)
        lam = validate_problem(ds)
        close(validate_problem(spec), lam, size)
        for rho in (lam + 1.0, 1e4, 1e6):
            B = rng.standard_normal((3, n))
            X = spec.cov.shifted_solver(rho).solve(B)
            ref = np.linalg.solve(A + rho * np.eye(n), B.T).T
            close(X, ref, np.abs(ref).max())
            close(ds.cov.shifted_solver(rho).solve(B), ref, np.abs(ref).max())
            fact, dfact = build_factorization(spec, rho), build_factorization(ds, rho)
            close(fact.s, dfact.s, np.abs(dfact.s).max())
            close(fact.t, dfact.t, np.abs(dfact.t).max())
            y = np.zeros(n)
            y[S] = z
            xd = x_step(dfact, y)
            # x = t/2 + ... cancels terms as large as t/2 when tau*mu dominates
            close(x_step(fact, y), xd, max(np.abs(xd).max(), 0.5 * np.abs(dfact.t).max()))
            q = penalty_q(ds, rho, xd, y)
            close(penalty_q(spec, rho, xd, y), q, 1.0 + abs(q) + size)

    @pytest.mark.parametrize("c", [0.0, 0.3], ids=["d=0", "d=c"])
    def test_one_gram_matrix_per_operator(self, c):
        # lambda_max and every level's capacitance come from one G'G, formed
        # on first use, never at construction
        class Products(np.ndarray):
            grams = 0  # products of the n x m factor with itself, G'G-sized

            def __matmul__(self, other):
                if self.shape[::-1] == np.shape(other) and self.shape[0] < self.shape[1]:
                    Products.grams += 1
                return np.asarray(np.ndarray.__matmul__(self, other))

        rng = np.random.default_rng(5)
        n, m = 200, 10
        G = rng.standard_normal((n, m)).view(Products)
        cov = FactorCovariance(G, np.full(n, c))
        spec = ProblemSpec(cov=cov, mu=rng.uniform(0.0, 0.2, n), tau=1.0, k=5)
        assert Products.grams == 0 and cov._gram is None
        lam = validate_problem(spec)
        A = np.asarray(G) @ np.asarray(G).T + c * np.eye(n)
        assert lam == pytest.approx(np.linalg.eigvalsh(A)[-1], rel=1e-12)
        B = rng.standard_normal((3, n))
        for rho in (lam + 1.0, 10.0 * (lam + 1.0), 1e4):
            ref = np.linalg.solve(A + rho * np.eye(n), B.T).T
            close(cov.shifted_solver(rho).solve(B), ref, np.abs(ref).max())
        assert Products.grams == 1
        # a varying d forms its scaled product at every level
        cov = FactorCovariance(G, np.linspace(0.1, 0.5, n))
        for rho in (1.0, 10.0, 100.0):
            cov.shifted_solver(rho)
        assert Products.grams == 4 and cov._gram is None

    @pytest.mark.parametrize("kind", ["d=c", "d-varying", "d=0", "dense-226", "dense-12"])
    @pytest.mark.parametrize("rho", ["floor", 1e4, 1e6])
    def test_sparse_solve_and_coupling_block(self, kind, rho):
        # the k-sparse operations of a level against solves with the formed A:
        # Woodbury levels, and Cholesky levels with k small beside n and close to it
        if kind == "d-varying":
            base = factor_model_instance(476, 10, seed=0)
            d = base.d * np.random.default_rng(1).uniform(0.5, 2.0, base.n)
            spec = ProblemSpec(G=base.G, d=d, mu=base.mu, tau=base.tau, k=base.k)
        elif kind == "d=0":  # a wide returns window: 60 periods of 1000 assets
            spec = monthly_returns_instance(1000, 10, seed=0)
        elif kind == "dense-226":
            spec = dense(factor_model_instance(226, 10))
        elif kind == "dense-12":
            spec = random_psd_instance(12, 8)
        else:
            spec = factor_model_instance(476, 10, seed=0)
        assert spec.cov.factored != kind.startswith("dense")
        r = validate_problem(spec) + 1.0 if rho == "floor" else rho
        A, n = spec.A, spec.n
        level = spec.cov.shifted_solver(r)
        rng = np.random.default_rng(7)
        for size in (1, spec.k):
            S = np.sort(rng.choice(n, size, replace=False))
            v = rng.uniform(0.1, 1.0, size)
            b = np.zeros(n)
            b[S] = v
            x_ref = np.linalg.solve(A + r * np.eye(n), b)
            close(level.sparse(S, v), x_ref, np.abs(x_ref).max())
            W = np.linalg.solve(A + r * np.eye(n), np.eye(n)[:, S])  # columns of S
            ref = (A @ W)[S]
            K = level.coupling(S)
            close(K, ref, np.abs(ref).max())
            assert np.linalg.eigvalsh(0.5 * (K + K.T)).min() >= -1e-12 * np.abs(ref).max()
            # sparse on the S array coupling has just read, as the jump calls them
            close(level.sparse(S, v), x_ref, np.abs(x_ref).max())

    def test_lambda_max_of_constant_and_varying_d(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((300, 15)) / np.sqrt(15)
        for d in (np.full(300, 0.2), rng.uniform(0.0, 0.4, 300)):  # Gram matrix, then Lanczos
            top = np.linalg.eigvalsh(G @ G.T + np.diag(d))[-1]
            assert FactorCovariance(G, d).lambda_max() == pytest.approx(top, rel=1e-12)


# finite, but G_0.G_0 overflows: PD once reported asset 1 alone (f = 3) as
# converged, where assets 1 and 2 at 0.5 give f = 2.5
OVERFLOWING_G = np.ones((8, 2))
OVERFLOWING_G[0, 0] = 1.7e308


class TestFactorSpec:
    def test_factor_model_instance_is_factor_form(self):
        spec = factor_model_instance(1000, 10, seed=0)
        assert spec.cov.factored and spec.G.shape == (1000, 50)
        assert np.all(spec.d == spec.d[0]) and spec.d[0] > 0.0
        assert spec.cov._A is None  # nothing formed yet

    def test_dense_form_below_the_rank_ratio(self):
        # the sandwich's size: rank 5 of 10 is not small, so A is formed and solved dense
        spec = factor_model_instance(10, 4, seed=0)
        assert isinstance(spec.cov, DenseCovariance) and spec.G.shape == (10, 5)
        G = np.random.default_rng(0).standard_normal((8, 3))
        for m, factored in ((8 // FACTOR_RANK_RATIO, True), (8 // FACTOR_RANK_RATIO + 1, False)):
            spec = ProblemSpec(G=G[:, :m], d=np.ones(8), mu=np.zeros(8), tau=1.0, k=2)
            assert spec.cov.factored == factored

    def test_a_formed_once_read_only_and_symmetric(self):
        spec = factor_model_instance(226, 10, seed=1)
        A = spec.A
        assert spec.A is A and not A.flags.writeable
        assert np.array_equal(A, A.T)
        np.testing.assert_allclose(A, spec.G @ spec.G.T + np.diag(spec.d), rtol=0, atol=1e-15)

    def test_factors_frozen_and_copied(self):
        G, d = np.ones((8, 1)), np.full(8, 0.5)
        spec = ProblemSpec(G=G, d=d, mu=np.zeros(8), tau=1.0, k=1)
        G[0, 0], d[0] = 5.0, 9.0
        assert spec.G[0, 0] == 1.0 and spec.d[0] == 0.5
        with pytest.raises(ValueError):
            spec.G[0, 0] = 2.0

    def test_replace_keeps_the_operator(self):
        spec = factor_model_instance(226, 10, seed=0)
        other = dataclasses.replace(spec, k=20)
        assert other.cov is spec.cov and other.k == 20 and np.shares_memory(other.mu, spec.mu)
        with pytest.raises(BadDimension):
            dataclasses.replace(spec, mu=np.zeros(3))

    @pytest.mark.parametrize("G, d, error", [
        (np.ones((3, 1)), np.ones(4), BadDimension),   # mu has length 4
        (np.ones((4, 0)), np.ones(4), BadDimension),   # no factor
        (np.ones(4), np.ones(4), BadDimension),         # not a matrix
        (np.ones((4, 1)), np.ones(3), BadDimension),
        (np.full((4, 1), np.nan), np.ones(4), BadData),
        (np.ones((4, 1)), np.array([1.0, -1e-3, 1.0, 1.0]), BadData),
        (OVERFLOWING_G, np.ones(8), BadData),
    ], ids=["rows", "columns", "vector", "d-length", "non-finite", "negative-d", "overflow"])
    def test_rejected(self, G, d, error):
        with pytest.raises(error):
            ProblemSpec(G=G, d=d, mu=np.zeros(max(4, d.size)), tau=1.0, k=2)

    def test_overflowing_operator_rejected_by_validation(self):
        # the same factors handed in as an operator, which ProblemSpec does not inspect
        G = OVERFLOWING_G
        spec = ProblemSpec(cov=FactorCovariance(G, np.ones(8)), mu=np.zeros(8), tau=1.0, k=2)
        with np.errstate(over="ignore"):
            with pytest.raises(BadData):
                validate_problem(spec)
            with pytest.raises(BadData):
                ccmv_pd_solve(spec)

    @pytest.mark.parametrize("kwargs", [
        {"A": np.eye(4), "G": np.ones((4, 1)), "d": np.ones(4)},
        {"G": np.ones((4, 1))},
        {},
    ], ids=["both-forms", "no-d", "no-covariance"])
    def test_exactly_one_form(self, kwargs):
        with pytest.raises(TypeError):
            ProblemSpec(mu=np.zeros(4), tau=1.0, k=1, **kwargs)


class TestSolversOnFactors:
    def test_never_form_a(self, monkeypatch):
        spec = factor_model_instance(100, 2, seed=0)
        assert spec.cov.factored

        def forbidden(G, d):
            raise AssertionError("A formed from its factors")

        monkeypatch.setattr(model, "dense_covariance", forbidden)
        sols = [ccmv_pd_solve(spec), ccmv_padm_solve(spec), brute_force_solve(spec).to_solution()]
        for sol in sols:
            assert_feasible(spec, sol.weights, sol.support)
            assert kkt_check(spec, sol.weights, sol.support).max_residual <= 1e-8
            in_sample_stats(spec, sol.weights)
        assert sols[2].objective <= min(s.objective for s in sols[:2]) + 1e-9
        with pytest.raises(AssertionError):
            spec.A  # the patch was live

    @pytest.mark.parametrize("n", [226, 476, 1000, 2000])
    @pytest.mark.parametrize("k", [10, 20])
    def test_same_path_as_dense_form(self, n, k):
        spec = factor_model_instance(n, k, seed=0)
        sol, ref = ccmv_pd_solve(spec), ccmv_pd_solve(dense(spec))
        assert sol.support == ref.support
        assert [(r.inner_iters, r.jumps) for r in sol.trace] == [(r.inner_iters, r.jumps) for r in ref.trace]
        assert sol.safeguard_resets == ref.safeguard_resets
        assert abs(sol.objective - ref.objective) <= 1e-12 * abs(ref.objective)
        assert max(sol.kkt_residual, ref.kkt_residual) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_returns_same_path_as_dense_form(self, seed):
        # 60 periods of 1000 assets: the sample covariance comes in factor form
        spec = monthly_returns_instance(1000, 10, seed=seed)
        assert spec.cov.factored and spec.G.shape == (1000, 60)
        sol, ref = ccmv_pd_solve(spec), ccmv_pd_solve(dense(spec))
        assert sol.support == ref.support
        assert [(r.inner_iters, r.jumps) for r in sol.trace] == [(r.inner_iters, r.jumps) for r in ref.trace]
        assert abs(sol.objective - ref.objective) <= 1e-10 * (1.0 + abs(ref.objective))
        assert max(sol.kkt_residual, ref.kkt_residual) <= 1e-8

    def test_large_instance_in_little_memory(self, monkeypatch):
        # n = 10000, m = 500: a dense A alone would take 800 MB
        monkeypatch.setattr(model, "dense_covariance", None)  # forming A would raise
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            spec = factor_model_instance(10000, 10, seed=0)
            sol = ccmv_pd_solve(spec)
            seconds = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.G.shape == (10000, 500)
        assert_feasible(spec, sol.weights, sol.support)
        assert sol.kkt_residual <= 1e-8
        assert peak < 200 * 2**20, f"peak {peak / 2**20:.0f} MiB"
        assert seconds < 30.0
