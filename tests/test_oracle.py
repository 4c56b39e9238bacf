import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from ccmv import ProblemSpec, brute_force_solve, kkt_check, objective_f
from ccmv import oracle, pd
from ccmv.errors import TooLarge
from ccmv.oracle import restricted_qp_solve
from ccmv.synthetic import factor_model_instance, random_psd_instance

from conftest import assert_feasible, degenerate_specs, enumerate_restricted_qp, enumerate_supports


class TestRestrictedQpSolve:
    def test_symmetric_pair(self):
        spec = ProblemSpec(np.eye(3), np.zeros(3), tau=1e-300, k=2)
        x, obj = restricted_qp_solve(spec, (0, 1))
        np.testing.assert_allclose(x, [0.5, 0.5, 0.0], atol=1e-12)
        assert obj == pytest.approx(0.5)

    def test_singleton_forced(self):
        spec = ProblemSpec(np.diag([1.0, 2.0]), np.array([0.3, 0.1]), tau=1.0, k=1)
        x, obj = restricted_qp_solve(spec, (1,))
        np.testing.assert_array_equal(x, [0.0, 1.0])
        assert obj == pytest.approx(2.0 - 0.1)

    def test_interior_hand_solution(self):
        spec = ProblemSpec(np.diag([1.0, 3.0]), np.zeros(2), tau=1e-300, k=2)
        x, obj = restricted_qp_solve(spec, (0, 1))
        np.testing.assert_allclose(x, [0.75, 0.25], atol=1e-12)
        assert obj == pytest.approx(0.75)

    def test_active_bound_respected(self):
        # large tau drives everything into the high-return asset; the other
        # coordinate must end up at exactly zero, not negative
        spec = ProblemSpec(np.eye(2), np.array([1.0, 0.0]), tau=50.0, k=2)
        x, obj = restricted_qp_solve(spec, (0, 1))
        np.testing.assert_array_equal(x, [1.0, 0.0])

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(83)
        for seed in range(10):
            spec = random_psd_instance(n=6, k=6, seed=seed)
            x_star, f_star = restricted_qp_solve(spec, tuple(range(6)))
            for _ in range(100):
                z = rng.dirichlet(np.ones(6))
                assert f_star <= objective_f(spec, z) + 1e-9


class TestBruteForceSolve:
    def test_toy_global(self, toy_spec):
        res = brute_force_solve(toy_spec)
        np.testing.assert_array_equal(res.x, [1.0, 0.0, 0.0])
        assert res.objective == pytest.approx(0.7)
        assert res.supports_examined == 3

    def test_k_equals_n_single_support(self):
        spec = random_psd_instance(n=5, k=5, seed=3)
        res = brute_force_solve(spec)
        xr, fr = enumerate_restricted_qp(spec, tuple(range(5)))
        assert res.objective == pytest.approx(fr, abs=1e-12)
        assert res.supports_examined == 1

    def test_beats_random_sparse_points(self):
        rng = np.random.default_rng(89)
        for seed in range(5):
            spec = random_psd_instance(n=7, k=3, seed=seed)
            res = brute_force_solve(spec)
            assert_feasible(spec, res.x, np.flatnonzero(res.x))
            for _ in range(1000):
                S = rng.choice(7, size=3, replace=False)
                z = np.zeros(7)
                z[S] = rng.dirichlet(np.ones(3))
                assert res.objective <= objective_f(spec, z) + 1e-9

    def test_full_support_past_old_size_limit(self):
        # 25 assets in one support: no per-support size limit, no 2^25 patterns
        spec = random_psd_instance(n=25, k=25, seed=0)
        res = brute_force_solve(spec)
        assert res.supports_examined == 1
        assert_feasible(spec, res.x, res.support)
        assert kkt_check(spec, res.x, res.support).max_residual <= 1e-8

    @pytest.mark.parametrize("n,k", [(6, 1), (6, 3), (7, 4), (5, 5)])
    def test_one_restricted_solve_per_support(self, monkeypatch, n, k):
        # benchmark/run.py traces oracle.restricted_qp_solve as the oracle's
        # per-node layer: every restricted solve of the search must go through
        # it, no index set may be solved twice, and supports_examined counts them
        supports = []
        solve = oracle.restricted_qp_solve

        def recording_solve(spec, support, x0=None):
            supports.append(tuple(sorted(support)))
            return solve(spec, support, x0=x0)

        kernel_calls = []
        kernel = pd._active_set

        def counting_kernel(spec, idx, start=None):
            kernel_calls.append(idx.size)
            return kernel(spec, idx, start)

        monkeypatch.setattr(oracle, "restricted_qp_solve", recording_solve)
        monkeypatch.setattr(pd, "_active_set", counting_kernel)
        spec = random_psd_instance(n=n, k=k, seed=n + k)
        res = brute_force_solve(spec)
        assert len(supports) == len(kernel_calls) == res.supports_examined >= 1
        assert len(set(supports)) == len(supports)
        assert res.objective == pytest.approx(enumerate_supports(spec)[1], abs=1e-12)

    def test_budget_guard(self):
        spec = random_psd_instance(n=40, k=20, seed=0)
        with pytest.raises(TooLarge):
            brute_force_solve(spec)

    def test_to_solution_roundtrip(self, toy_spec):
        sol = brute_force_solve(toy_spec).to_solution()
        assert sol.solver == "oracle"
        assert sol.support == (0,)
        assert sol.kkt is None

    def test_objective_consistent_with_weights(self):
        for seed in range(10):
            spec = random_psd_instance(n=6, k=2, seed=seed)
            res = brute_force_solve(spec)
            assert res.objective == pytest.approx(objective_f(spec, res.x), abs=1e-12)


def exhaustive_solve(spec):
    """Least objective over every size-k support and, in each, every zero pattern."""
    return min(enumerate_restricted_qp(spec, support)[1]
               for support in itertools.combinations(range(spec.n), spec.k))


class TestBruteForceProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(degenerate_specs(7))
    def test_matches_exhaustive_enumeration(self, spec_n):
        for k in range(1, spec_n.n + 1):
            spec = ProblemSpec(spec_n.A, spec_n.mu, tau=spec_n.tau, k=k)
            res = brute_force_solve(spec)
            f_ref = exhaustive_solve(spec)
            assert abs(res.objective - f_ref) <= 1e-9 * (1.0 + abs(f_ref))
            assert res.objective == objective_f(spec, res.x)
            assert_feasible(spec, res.x, res.support)


class TestBranchAndBound:
    """The search against exhaustive support enumeration (conftest.enumerate_supports)."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(degenerate_specs(8))
    def test_matches_support_enumeration(self, spec_n):
        for k in range(1, spec_n.n + 1):
            spec = ProblemSpec(spec_n.A, spec_n.mu, tau=spec_n.tau, k=k)
            res = brute_force_solve(spec)
            f_ref = enumerate_supports(spec)[1]
            assert abs(res.objective - f_ref) <= 1e-12 * (1.0 + abs(f_ref))
            assert res.objective == objective_f(spec, res.x)
            assert_feasible(spec, res.x, res.support)

    @pytest.mark.parametrize("hint_f", [-np.inf, np.inf], ids=["relax-only-where-needed", "relax-every-node"])
    def test_relaxation_skips_keep_the_optimum(self, monkeypatch, hint_f):
        # f at an exclude child's point only decides whether its relaxation is
        # solved; forcing every decision either way must not change the optimum
        monkeypatch.setattr(oracle, "objective_f", lambda spec, x: hint_f)
        for seed in range(4):
            for n in (6, 8):
                for k in range(1, n + 1):
                    spec = random_psd_instance(n=n, k=k, seed=seed, rank=1 + seed % 3)
                    res = brute_force_solve(spec)
                    f_ref = enumerate_supports(spec)[1]
                    assert abs(res.objective - f_ref) <= 1e-12 * (1.0 + abs(f_ref))
                    assert_feasible(spec, res.x, res.support)

    def test_sandwich_instances(self):
        # the benchmark's sandwich items: n = 10, k alternating between 4 and 5
        for seed in range(100):
            spec = factor_model_instance(n=10, k=4 + seed % 2, seed=seed)
            res = brute_force_solve(spec)
            f_ref = enumerate_supports(spec)[1]
            assert abs(res.objective - f_ref) <= 1e-12 * (1.0 + abs(f_ref))
            assert res.supports_examined < math.comb(10, spec.k)

    def test_single_asset_of_thousands(self):
        # k = 1 within the budget at n = 3000: an explicit stack, no recursion
        spec = factor_model_instance(n=3000, k=1, seed=0)
        res = brute_force_solve(spec)
        j = int(np.argmin(np.diag(spec.A) - spec.tau * spec.mu))
        assert res.support == (j,)
        np.testing.assert_array_equal(res.x, np.eye(spec.n)[j])

    def test_duplicate_assets_deterministic(self):
        # assets 0 and 5 are copies, so every optimum has a twin of equal objective
        spec = random_psd_instance(n=8, k=3, seed=4)
        A, mu = spec.A.copy(), spec.mu.copy()
        A[5], A[:, 5], mu[5] = A[0], A[:, 0], mu[0]
        A[5, 5] = A[0, 0]
        spec = ProblemSpec(A, mu, tau=spec.tau, k=3)
        first, second = brute_force_solve(spec), brute_force_solve(spec)
        np.testing.assert_array_equal(first.x, second.x)
        assert first.support == second.support
        assert first.objective == second.objective == pytest.approx(enumerate_supports(spec)[1], abs=1e-12)
