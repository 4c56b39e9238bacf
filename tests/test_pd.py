import logging
import re

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
    ccmv_padm_solve,
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
from ccmv.errors import BadDimension, BadSupport, MeritMismatch, NumericalBreakdown
from ccmv.model import validate_problem
from ccmv.padm import _project_simplex
from ccmv.pd import dense_simplex_minimizer
from ccmv.serialize import solution_to_dict
from ccmv.synthetic import (
    factor_model_instance,
    monthly_returns_instance,
    random_psd_instance,
)

from conftest import assert_feasible, degenerate_specs, dense, enumerate_restricted_qp, penalty_path


def restricted_kkt_solve(spec, rho, support):
    """Dense reference for a jump: minimize q_rho with y = x on the support, 0 off it.

    That is x'(A + rho*D)x - tau*mu'x over {e'x = 1}, D the 0/1 diagonal of
    the off-support indices, solved as one (n+1)-row equality-KKT system.
    """
    n = spec.n
    off = np.ones(n)
    off[list(support)] = 0.0
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = 2.0 * (spec.A + rho * np.diag(off))
    K[:n, n] = 1.0
    K[n, :n] = 1.0
    return np.linalg.solve(K, np.append(spec.tau * spec.mu, 1.0))[:n]


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
            X = fact.level.solve(np.eye(6))  # rows of (A + rho I)^{-1}
            np.testing.assert_allclose(X @ (spec.A + rho * np.eye(6)), np.eye(6), atol=1e-8)


class TestXStep:
    def test_point_on_hyperplane_fixed(self):
        spec = ProblemSpec(np.zeros((2, 2)), np.zeros(2), tau=1.0, k=1)
        fact = build_factorization(spec, 1.0)
        np.testing.assert_allclose(x_step(fact, np.array([1.0, 0.0])),
                                   [1.0, 0.0], atol=1e-12)

    def test_symmetric_projection(self):
        spec = ProblemSpec(np.zeros((2, 2)), np.zeros(2), tau=1.0, k=1)
        fact = build_factorization(spec, 1.0)
        np.testing.assert_allclose(x_step(fact, np.zeros(2)), [0.5, 0.5])

    def test_hand_solved_diag(self):
        # min a^2 + 3b^2 + (a^2+b^2) over a+b=1 gives a=2/3
        spec = ProblemSpec(np.diag([1.0, 3.0]), np.zeros(2), tau=1e-300, k=1)
        fact = build_factorization(spec, 1.0)
        np.testing.assert_allclose(x_step(fact, np.zeros(2)),
                                   [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_budget_pinned(self):
        rng = np.random.default_rng(31)
        for seed in range(10):
            spec = random_psd_instance(n=8, k=3, seed=seed)
            fact = build_factorization(spec, 2.0)
            x = x_step(fact, rng.normal(size=8))
            assert abs(x.sum() - 1.0) <= 1e-10

    def test_matches_dense_kkt_solve(self):
        rng = np.random.default_rng(37)
        for seed in range(10):
            spec = random_psd_instance(n=7, k=3, seed=seed)
            rho = float(rng.uniform(0.1, 10.0))
            fact = build_factorization(spec, rho)
            y = rng.normal(size=7)
            np.testing.assert_allclose(x_step(fact, y),
                                       kkt_linear_solve(spec, rho, y), atol=1e-8)

    @pytest.mark.parametrize("big_rho", [False, True])
    def test_cached_columns_match_dense_kkt_solve(self, big_rho):
        # one dense level asked about overlapping, disjoint, repeated, empty and dense supports
        spec = dense(factor_model_instance(226, 10, seed=0))
        rho = 1e4 if big_rho else validate_problem(spec) + 1.0
        rng = np.random.default_rng(47)

        def sparse_y(support):
            y = np.zeros(spec.n)
            y[list(support)] = rng.dirichlet(np.ones(len(support)))
            return y

        first = sparse_y(range(10))
        sequence = [
            first,
            sparse_y(range(5, 15)),        # overlaps the first support
            sparse_y(range(100, 110)),     # disjoint from both
            first,                         # repeated support
            sparse_y(range(10)),           # same support, new values
            np.zeros(spec.n),              # y = 0
            rng.uniform(size=spec.n),      # dense
        ]
        fact = build_factorization(spec, rho)
        for y in sequence:
            x = x_step(fact, y)
            np.testing.assert_allclose(x, kkt_linear_solve(spec, rho, y), rtol=0, atol=1e-10)
            # a level keeps no state: a used level gives a fresh level's bits
            assert np.array_equal(x, x_step(build_factorization(spec, rho), y))


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
        x, y, iters, q_trace, converged = bcd_inner(spec, build_factorization(spec, 10.0), y0, SolverConfig())
        assert converged and iters <= 2
        assert np.flatnonzero(y).tolist() == [0]

    def test_support_retained(self, toy_spec):
        x, y, _, _, converged = bcd_inner(toy_spec, build_factorization(toy_spec, 10.0),
                                          np.array([1.0, 0, 0]), SolverConfig())
        assert converged
        assert np.flatnonzero(y).tolist() == [0]

    def test_q_trace_non_increasing_random(self):
        rng = np.random.default_rng(43)
        for seed in range(30):
            n = int(rng.integers(3, 9))
            spec = random_psd_instance(n=n, k=int(rng.integers(1, n)), seed=seed)
            y0 = y_step(rng.normal(size=n), spec.k)
            rho = float(rng.uniform(0.5, 20.0))
            _, _, _, q_trace, _ = bcd_inner(spec, build_factorization(spec, rho), y0, SolverConfig())
            for a, b in zip(q_trace, q_trace[1:]):
                assert b <= a + 1e-9 * (1.0 + abs(b))

    def test_q_matches_direct_evaluation(self):
        spec = random_psd_instance(n=5, k=2, seed=9)
        x, y, _, q_trace, _ = bcd_inner(spec, build_factorization(spec, 3.0), y_step(spec.mu, 2),
                                     SolverConfig())
        assert q_trace[-1] == pytest.approx(penalty_q(spec, 3.0, x, y), abs=1e-12)

    @pytest.mark.parametrize("kind", ["random", "rank_deficient", "scale", "backtest"])
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
            elif kind == "scale":
                spec = factor_model_instance(226, 10, seed=seed)
            else:  # the backtest's instance type, where a jump's y-step can change the support
                spec = monthly_returns_instance(100, 10, seed=seed)
            r = validate_problem(spec) + 1.0 if rho == "floor" else rho
            pairs.clear()
            y0 = y_step(dense_simplex_minimizer(spec), spec.k)
            _, _, iters, q_trace, _ = bcd_inner(spec, build_factorization(spec, r), y0, SolverConfig())
            assert len(pairs) == len(q_trace) == iters
            A = spec.A  # formed once: a reference independent of spec.cov
            for q, (x, y) in zip(q_trace, pairs):
                exact = x @ A @ x - spec.tau * (spec.mu @ x) + r * ((x - y) @ (x - y))
                assert abs(q - exact) <= 1e-12 * abs(exact)

    def test_accepted_jump_reuses_its_q(self, monkeypatch):
        # one penalty_q per iteration, plus one per candidate jump, minus one
        # per accepted jump whose y-step kept its support: that y is the jump's
        # y* bit for bit, so its q is the one the jump was accepted by
        calls, events = [0], []
        plain_q, plain_jump, plain_y_step = pd.penalty_q, pd._jump, pd.y_step

        def counting_q(*args):
            calls[0] += 1
            return plain_q(*args)

        def recording_jump(*args):
            before = calls[0]
            jump = plain_jump(*args)
            events.append(("jump", jump, calls[0] - before))
            return jump

        def recording_y_step(x, k):
            y = plain_y_step(x, k)
            events.append(("y", np.flatnonzero(y), 0))
            return y

        monkeypatch.setattr(pd, "penalty_q", counting_q)
        monkeypatch.setattr(pd, "_jump", recording_jump)
        monkeypatch.setattr(pd, "y_step", recording_y_step)
        kept_total = changed_total = 0
        for spec in [monthly_returns_instance(100, 10, seed=s) for s in range(3)] + [
                factor_model_instance(226, 10, seed=0)]:
            y0 = plain_y_step(dense_simplex_minimizer(spec), spec.k)
            calls[0] = 0
            events.clear()
            fact = build_factorization(spec, validate_problem(spec) + 1.0)
            iters = bcd_inner(spec, fact, y0, SolverConfig())[2]
            candidates = sum(e[2] for e in events if e[0] == "jump")
            kept = changed = 0
            for (kind, jump, _), (_, S, _) in zip(events, events[1:]):
                if kind == "jump" and jump is not None:
                    same = np.array_equal(S, jump[1])
                    kept, changed = kept + same, changed + (not same)
            assert calls[0] == iters + candidates - kept
            kept_total, changed_total = kept_total + kept, changed_total + changed
        assert kept_total >= 4 and changed_total >= 1

    def test_given_first_x_step_same_result(self):
        # x0 = x_step(fact, y0) stands in for the first x-step, bit for bit
        for spec in (factor_model_instance(226, 10, seed=1), monthly_returns_instance(100, 10, seed=2)):
            rho = validate_problem(spec) + 1.0
            y0 = y_step(dense_simplex_minimizer(spec), spec.k)
            fact = build_factorization(spec, rho)
            given = bcd_inner(spec, fact, y0, SolverConfig(), x0=x_step(fact, y0))
            plain = bcd_inner(spec, build_factorization(spec, rho), y0, SolverConfig())
            for a, b in zip(given, plain):
                np.testing.assert_array_equal(a, b)

    def test_wrong_x_step_raises_merit_mismatch(self, monkeypatch):
        spec = factor_model_instance(40, 5, seed=3)
        shift = np.zeros(spec.n)
        shift[:2] = [1e-3, -1e-3]  # stays on the budget hyperplane
        exact_step = pd.x_step
        monkeypatch.setattr(pd, "x_step", lambda fact, y: exact_step(fact, y) + shift)
        y0 = y_step(dense_simplex_minimizer(spec), spec.k)
        with pytest.raises(MeritMismatch):
            bcd_inner(spec, build_factorization(spec, 10.0), y0, SolverConfig())


def _jump_spec(kind, seed):
    if kind == "random":
        return random_psd_instance(n=12, k=4, seed=seed)
    if kind == "rank_deficient":  # estimation window shorter than the asset count
        return monthly_returns_instance(60, 6, seed=seed, periods=30)
    return factor_model_instance(226, 10, seed=seed)


@st.composite
def degenerate_levels(draw):
    """A degenerate instance with k drawn from 1..n, and one penalty level."""
    spec = draw(degenerate_specs(10))
    k = draw(st.integers(1, spec.n))
    return ProblemSpec(spec.A, spec.mu, spec.tau, k), draw(st.sampled_from(["floor", 1e4, 1e6]))


class TestJump:
    @pytest.mark.parametrize("kind", ["random", "rank_deficient", "scale"])
    @pytest.mark.parametrize("rho", ["floor", 1e4, 1e6])
    def test_saddle_point_matches_dense_kkt_solve(self, kind, rho):
        for seed in range(3):
            spec = _jump_spec(kind, seed)
            r = validate_problem(spec) + 1.0 if rho == "floor" else rho
            fact = build_factorization(spec, r)
            seed_support = np.flatnonzero(y_step(dense_simplex_minimizer(spec), spec.k))
            other = np.sort(np.random.default_rng(seed).choice(spec.n, spec.k, replace=False))
            for S in (seed_support, other):
                x = pd._saddle_point(fact, S)
                np.testing.assert_allclose(x, restricted_kkt_solve(spec, r, S), rtol=0, atol=1e-10)

    def test_uncached_level_matches_dense_kkt_solve(self):
        # a dense level with k close to n
        spec = random_psd_instance(n=12, k=8, seed=5)
        fact = build_factorization(spec, validate_problem(spec) + 1.0)
        S = np.arange(0, 12, 2)
        np.testing.assert_allclose(pd._saddle_point(fact, S),
                                   restricted_kkt_solve(spec, fact.rho, S), rtol=0, atol=1e-10)

    def test_duplicate_assets_fall_back(self):
        # two identical assets on the support: the restricted problem has a flat face
        spec = ProblemSpec(np.ones((2, 2)), np.array([0.1, 0.1]), tau=1.0, k=2)
        fact = build_factorization(spec, validate_problem(spec) + 1.0)
        assert pd._saddle_point(fact, np.array([0, 1])) is None

    def test_duplicate_pair_falls_back_on_random_faces(self):
        # Z'PZ is 1 x 1 here and zero only up to round-off: the singularity
        # test must be relative to P, not to Z'PZ itself, or the solve returns
        # a "saddle point" with entries near 1e16
        rng = np.random.default_rng(0)
        for case in range(1200):
            n = int(rng.integers(2, 7))
            G = (1e-2, 1.0)[case % 2] * rng.standard_normal((n, n))
            G[-1] = G[0]
            mu = rng.uniform(0.0, 0.2, n)
            mu[-1] = mu[0]
            A = G @ G.T / n
            spec = ProblemSpec(0.5 * (A + A.T), mu, tau=10.0 ** rng.uniform(-3.0, 3.0), k=n)
            rho = (validate_problem(spec) + 1.0, 1e4, 1e6)[(case // 2) % 3]
            fact = build_factorization(spec, rho)
            assert pd._saddle_point(fact, np.array([0, n - 1])) is None, case

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_deficient_window_needs_few_iterations(self, seed):
        # the backtest's instance type: 100 assets, 60 periods, k = 10; its
        # seed is k-sparse, so ccmv_pd_solve skips the loop and it runs here
        trace = penalty_path(monthly_returns_instance(100, 10, seed=seed))[1]
        assert sum(r.jumps for r in trace) >= 1
        assert sum(r.inner_iters for r in trace) <= 50

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(degenerate_levels())
    def test_converged_level_is_bcd_fixed_point(self, case):
        spec, rho = case
        r = validate_problem(spec) + 1.0 if rho == "floor" else rho
        cfg = SolverConfig()
        fact = build_factorization(spec, r)
        y0 = y_step(dense_simplex_minimizer(spec), spec.k)
        _, y, _, q_trace, converged = bcd_inner(spec, fact, y0, cfg)
        for a, b in zip(q_trace, q_trace[1:]):
            assert b <= a + 1e-9 * (1.0 + abs(b))
        if converged:
            y_next = y_step(x_step(fact, y), spec.k)
            # a level that jumped ends on the saddle point; one whose jumps all
            # fell back (singular restricted problem) is a fixed point to eps_inner
            tol = 1e-9 if fact.jumps else cfg.eps_inner
            assert pd.relative_change(y_next, y) <= tol


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

    @pytest.mark.parametrize("make", [
        lambda: random_psd_instance(n=7, k=3, seed=2),
        lambda: factor_model_instance(40, 3, seed=2),  # rows read through the factors
    ], ids=["dense", "factor"])
    def test_repeated_index_counts_once(self, make):
        spec = make()
        x, f = polish_support(spec, (4, 1, 4, 1, 6))
        x_ref, f_ref = polish_support(spec, (1, 4, 6))
        np.testing.assert_array_equal(x, x_ref)
        assert f == f_ref

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
            xo, fo = enumerate_restricted_qp(spec, support)
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
    spec = draw(degenerate_specs(10))
    n = spec.n
    size = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    support = tuple(sorted(draw(st.permutations(range(n)))[:size]))
    return spec, support


class TestPolishSupportProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(degenerate_restricted_qps())
    def test_matches_oracle_on_degenerate_inputs(self, case):
        spec, support = case
        x, fx = polish_support(spec, support)
        _, f_ref = enumerate_restricted_qp(spec, support)
        assert abs(fx - f_ref) <= 1e-9 * (1.0 + abs(f_ref))
        assert fx == objective_f(spec, x)
        assert x.min() >= 0.0
        assert_feasible(spec, x, support, k=len(support))
        assert kkt_check(spec, x, support).max_residual <= 1e-8


@st.composite
def warm_polishes(draw):
    """A degenerate instance, a support of it, and a point x0 of length n to start its polish from.

    x0 is nonzero on a random subset of the indices, support or not, with
    entries of either sign, so from zero to all of the support's entries
    are positive.
    """
    spec, support = draw(degenerate_restricted_qps())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.uniform(-0.2, 1.0, spec.n) * (rng.uniform(size=spec.n) < draw(st.floats(0.0, 1.0)))
    return spec, support, x0


class TestWarmPolish:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(warm_polishes())
    def test_warm_matches_cold(self, case):
        spec, support, x0 = case
        _, f_cold = polish_support(spec, support)
        x, f = polish_support(spec, support, x0)
        assert abs(f - f_cold) <= 1e-9 * (1.0 + abs(f_cold))
        assert f == objective_f(spec, x)
        assert_feasible(spec, x, support, k=len(support))
        assert kkt_check(spec, x, support).max_residual <= 1e-8

    def test_start_from_positive_entries_on_the_support(self, monkeypatch):
        spec = factor_model_instance(40, 5, seed=3)
        starts = []
        kernel = pd._active_set

        def recording_kernel(spec, idx, start=None):
            starts.append(start)
            return kernel(spec, idx, start)

        monkeypatch.setattr(pd, "_active_set", recording_kernel)
        x0 = np.zeros(spec.n)
        x0[[2, 5, 9, 30]] = [0.5, -0.1, 1.5, 3.0]  # 30 is off the support
        polish_support(spec, (9, 2, 5, 7), x0)
        F0, z0 = starts[-1]
        np.testing.assert_array_equal(F0, [0, 3])  # positions of 2 and 9 in (2, 5, 7, 9)
        np.testing.assert_array_equal(z0, [0.25, 0.0, 0.0, 0.75])
        x0[2] = 0.0  # one positive entry: the cold vertex start
        polish_support(spec, (9, 2, 5, 7), x0)
        assert starts[-1] is None


def _assert_restricted_optimum(spec, support):
    x, fx = polish_support(spec, support)
    _, f_ref = enumerate_restricted_qp(spec, support)
    assert abs(fx - f_ref) <= 1e-12
    assert_feasible(spec, x, support, k=len(support))
    assert kkt_check(spec, x, support).max_residual <= 1e-8
    return x


@st.composite
def degenerate_supports(draw):
    """A degenerate instance with up to 40 assets, plus a support of it."""
    spec = draw(degenerate_specs(40))
    size = draw(st.integers(1, spec.n))
    return spec, tuple(sorted(draw(st.permutations(range(spec.n)))[:size]))


class TestActiveSetKernel:
    def test_runs_without_eigh_or_qr(self, monkeypatch):
        # the kernel and the jump factor by Cholesky alone; PD (seed, polish),
        # its penalty loop, padm (seed, polish) and the oracle (a kernel solve
        # per support) must complete without either routine
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.eigh / np.linalg.qr called")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "qr", forbidden)
        for spec in (factor_model_instance(226, 10, seed=0), monthly_returns_instance(100, 10, seed=0)):
            assert ccmv_pd_solve(spec).kkt_residual <= 1e-8
            assert sum(r.jumps for r in penalty_path(spec)[1]) >= 1
        assert ccmv_padm_solve(factor_model_instance(226, 10, seed=0)).kkt_residual <= 1e-8
        spec = factor_model_instance(8, 3, seed=0)
        res = brute_force_solve(spec)
        assert kkt_check(spec, res.x, res.support).max_residual <= 1e-8

    def test_zero_curvature_entry(self):
        # A = gg' has rank one: from the face {2, 0}, asset 1 enters along the
        # flat direction (1, 1, -2), which f descends linearly until x_2 = 0
        g = np.array([1.0, -1.0, 0.0])
        spec = ProblemSpec(np.outer(g, g), np.array([0.1, 0.1, 0.0]), tau=1.0, k=3)
        x = _assert_restricted_optimum(spec, (0, 1, 2))
        np.testing.assert_allclose(x, [0.5, 0.5, 0.0], rtol=0, atol=1e-15)

    def test_start_vertex_leaves_free_set(self):
        # asset 0 is the best single asset, but assets 1 and 2 hedge each
        # other exactly: the face minimizer over all three has x_0 < 0, so the
        # starting vertex (the anchor of the face basis) is dropped
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1.1, -1.1], [0.0, -1.1, 1.1]])
        spec = ProblemSpec(A, np.array([0.0, 0.05, 0.05]), tau=1.0, k=3)
        assert int(np.argmin(np.diag(A) - spec.tau * spec.mu)) == 0
        x = _assert_restricted_optimum(spec, (0, 1, 2))
        np.testing.assert_allclose(x, [0.0, 0.5, 0.5], rtol=0, atol=1e-15)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(degenerate_supports())
    def test_kkt_certified_on_degenerate_supports(self, case):
        # a KKT point of this convex QP is its global minimum
        spec, support = case
        x, _ = polish_support(spec, support)
        assert_feasible(spec, x, support, k=len(support))
        assert kkt_check(spec, x, support).max_residual <= 1e-8


@st.composite
def warm_starts(draw):
    """A degenerate instance, a support idx of it, and a warm start (F0, z0) for the kernel on idx.

    F0 holds distinct positions in idx; z0 is a random point of the simplex
    whose support is a random nonempty subset of F0.
    """
    spec, support = draw(degenerate_supports())
    idx = np.array(support)
    free = np.array(draw(st.permutations(range(idx.size)))[:draw(st.integers(1, idx.size))])
    on = free[:draw(st.integers(1, free.size))]
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=on.size, max_size=on.size))
    z0 = np.zeros(idx.size)
    z0[on] = np.array(weights) / sum(weights)
    return spec, idx, (free, z0)


class TestWarmStart:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(warm_starts())
    def test_same_minimum_as_cold_start(self, case):
        spec, idx, start = case
        x_cold = pd._active_set(spec, idx)[0]
        x, _, warm = pd._active_set(spec, idx, start)
        f_cold, f = objective_f(spec, x_cold), objective_f(spec, x)
        assert abs(f - f_cold) <= 1e-9 * (1.0 + abs(f_cold))
        assert_feasible(spec, x, tuple(idx), k=idx.size)
        assert kkt_check(spec, x, idx).max_residual <= 1e-8
        if not warm:
            np.testing.assert_array_equal(x, x_cold)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(warm_starts())
    def test_no_start_is_the_best_vertex_as_a_start(self, case):
        # a missing start is the best single-asset vertex ([j], e_j), set up as a given one
        spec, idx, _ = case
        j = int(np.argmin(spec.cov.diag(idx) - spec.tau * spec.mu[idx]))
        e_j = np.zeros(idx.size)
        e_j[j] = 1.0
        x, steps, warm = pd._active_set(spec, idx)
        x_v, steps_v, warm_v = pd._active_set(spec, idx, (np.array([j]), e_j))
        assert not warm and warm_v
        assert np.array_equal(x_v, x) and steps_v == steps

    def test_singular_starting_face_starts_cold(self):
        # assets 0 and 4 are the same asset: a face holding both has a flat direction
        spec = random_psd_instance(n=6, k=6, seed=3)
        A = spec.A.copy()
        A[4], A[:, 4] = A[0], A[:, 0]
        mu = spec.mu.copy()
        mu[4] = mu[0]
        spec = ProblemSpec(A, mu, tau=spec.tau, k=6)
        idx = np.arange(6)
        z0 = np.array([0.25, 0.25, 0.0, 0.0, 0.5, 0.0])
        x, _, warm = pd._active_set(spec, idx, (np.array([0, 1, 4]), z0))
        assert not warm
        np.testing.assert_array_equal(x, pd._active_set(spec, idx)[0])

    @pytest.mark.parametrize("seed", [281, 376, 399])
    def test_face_singular_to_round_off_starts_cold(self, seed):
        # A has rank r < n, and dpotrf factors the whole face with a pivot at
        # round-off; started there, the kernel would later refactor a face that
        # is not positive definite and raise NumericalBreakdown
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 12)
        r = rng.integers(1, n)
        G = rng.standard_normal((n, r))
        A = G @ G.T / r
        mu, tau = rng.uniform(0, 0.2, n), 10 ** rng.uniform(-3, 3)
        spec = ProblemSpec(0.5 * (A + A.T), mu, tau=tau, k=n)
        idx, free = np.arange(n), rng.permutation(n)
        x, _, warm = pd._active_set(spec, idx, (free, np.full(n, 1.0 / n)))
        assert not warm
        np.testing.assert_array_equal(x, pd._active_set(spec, idx)[0])

    def test_exact_free_set_takes_two_steps(self):
        # from the optimum's own free set, one step reaches the face minimizer
        # and the next one prices it optimal
        spec = factor_model_instance(226, 10, seed=1)
        idx = np.arange(spec.n)
        x_cold, cold_steps, _ = pd._active_set(spec, idx)
        free = np.flatnonzero(x_cold)
        z0 = np.zeros(spec.n)
        z0[free] = 1.0 / free.size
        x, steps, warm = pd._active_set(spec, idx, (free, z0))
        assert warm and steps == 2 < cold_steps
        np.testing.assert_allclose(x, x_cold, rtol=0, atol=1e-14)


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

    def test_dense_minimizer_at_extreme_tau(self):
        # A = 0 and tau * mu near 1e5: the seed is the single best-mu vertex, exactly
        spec = ProblemSpec(np.zeros((3, 3)), np.array([0.05, 0.1, 0.02]), tau=1e6, k=2)
        np.testing.assert_array_equal(dense_simplex_minimizer(spec), [0.0, 1.0, 0.0])


def _with_covariance(base, tau=None, G=None, d=None):
    """base's instance with another tau, G or d, in factor form."""
    return ProblemSpec(G=base.G if G is None else G, d=base.d if d is None else d, mu=base.mu,
                       tau=base.tau if tau is None else tau, k=base.k)


def _ill_conditioned(base):
    """A factor form whose d is about 1e-6 of G G': the dual does not settle."""
    rng = np.random.default_rng(1)
    n, m = base.G.shape
    return _with_covariance(base, G=rng.standard_normal((n, m)) / np.sqrt(m),
                            d=1e-6 * rng.uniform(0.001, 1.0, n))


def _varying_d(base):
    return _with_covariance(base, d=base.d * np.random.default_rng(1).uniform(0.5, 2.0, base.n))


def _tiny_d(base):
    """d = 1e-20: round-off hides 1/(2d) beside tau*mu in the water-filling start."""
    return _with_covariance(base, d=np.full(base.n, 1e-20))


def _zero_in_d(base):
    d = base.d.copy()
    d[3] = 0.0
    return _with_covariance(base, d=d)


@st.composite
def degenerate_factor_specs(draw):
    """A factor form large enough for the dual start (n > DUAL_MIN_RELEASABLE), k = n.

    Return-scale to large G; constant, varying or vanishing-to-round-off d;
    a duplicated asset or tied mu; tau from 1e-6 to 1e6.
    """
    n = draw(st.integers(pd.DUAL_MIN_RELEASABLE + 2, 300))
    m = draw(st.integers(1, n // 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([-2.0, 0.0, 2.0]))
    G = scale * rng.standard_normal((n, m)) / np.sqrt(m)
    kind = draw(st.sampled_from(["constant-d", "varying-d", "duplicate", "tied-mu"]))
    d = np.full(n, 10.0 ** draw(st.floats(-20.0, 3.0)) * scale ** 2)
    mu = rng.uniform(0.0, 0.2, n)
    if kind == "varying-d":
        d *= rng.uniform(0.001, 1.0, n)
    if kind == "duplicate":
        G[-1], mu[-1] = G[0], mu[0]
    if kind == "tied-mu":
        mu[:] = mu[0]
    return ProblemSpec(G=G, d=d, mu=mu, tau=10.0 ** draw(st.floats(-6.0, 6.0)), k=n)


class TestDualSeed:
    """The factor-form seed, warm-started from the dual, against the cold seed of the dense form."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(degenerate_factor_specs())
    def test_same_minimum_as_cold_kernel(self, spec):
        x = dense_simplex_minimizer(spec)
        x_cold = pd._active_set(spec, np.arange(spec.n))[0]
        f, f_cold = objective_f(spec, x), objective_f(spec, x_cold)
        assert abs(f - f_cold) <= 1e-9 * (1.0 + abs(f_cold))
        assert_feasible(spec, x, range(spec.n))
        # the cold kernel's own residual sets the scale on a G of 100
        kkt = kkt_check(spec, x, range(spec.n)).max_residual
        assert kkt <= max(1e-8, 10.0 * kkt_check(spec, x_cold, range(spec.n)).max_residual)

    @staticmethod
    def _seed_start(spec, caplog):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ccmv"):
            x = dense_simplex_minimizer(spec)
        events = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("dense seed:")]
        assert len(events) == 1
        return x, events[0]

    @pytest.mark.parametrize("n", [226, 1000])
    @pytest.mark.parametrize("make, start", [
        (lambda base: _with_covariance(base, tau=1e-6), "start=dual"),  # every asset free
        (lambda base: base, "start=dual"),
        (lambda base: _with_covariance(base, tau=1e3), "start=cold"),  # 1-6 assets free
        (_varying_d, "start=dual"),
        (_zero_in_d, "start=cold (zero in d)"),
        (_ill_conditioned, "start=cold (line search stalled)"),  # the guess is abandoned
        (_tiny_d, "start=cold"),
    ], ids=["tau1e-6", "tau0.5", "tau1e3", "varying-d", "zero-in-d", "ill-conditioned", "tiny-d"])
    def test_matches_cold_dense_seed(self, n, make, start, caplog):
        spec = make(factor_model_instance(n, 10, seed=0))
        assert spec.cov.factored
        x, event = self._seed_start(spec, caplog)
        assert start in event
        x_dense, event_dense = self._seed_start(dense(spec), caplog)
        assert "start=cold (dense covariance)" in event_dense
        np.testing.assert_allclose(x, x_dense, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.flatnonzero(y_step(x, spec.k)),
                                      np.flatnonzero(y_step(x_dense, spec.k)))

    def test_debug_event_names_start_and_steps(self, caplog):
        spec = factor_model_instance(1000, 10, seed=0)
        _, event = self._seed_start(spec, caplog)
        assert event.startswith("dense seed: start=dual newton_steps=")
        newton, kernel = (int(part.split("=")[1]) for part in event.split()[-2:])
        # the dual's point passes the kernel's own tests, so the kernel does not run
        assert 1 <= newton <= pd.DUAL_STEPS and kernel == 0
        _, event = self._seed_start(dense(spec), caplog)
        assert event.startswith("dense seed: start=cold (dense covariance) newton_steps=0 ")
        # a cold start takes a step per release and per drop, more than 100 to
        # reach this seed's 54-asset free set
        assert int(event.split("=")[-1]) > 100

    @pytest.mark.parametrize("n", [226, 1000])
    def test_refused_certificate_runs_the_kernel(self, n, monkeypatch, caplog):
        # without P's largest entry the dual's point is not the seed: the
        # certificate must refuse it and the kernel finish from there
        def short_start(spec):
            (P, z), steps, reason = dual_start(spec)
            j = int(np.argmax(z[P]))
            z = z.copy()
            z[P[j]] = 0.0
            return (np.delete(P, j), z / z.sum()), steps, reason

        dual_start = pd._dual_start
        monkeypatch.setattr(pd, "_dual_start", short_start)
        spec = factor_model_instance(n, 10, seed=0)
        x, event = self._seed_start(spec, caplog)
        assert event.startswith("dense seed: start=dual ")
        assert int(event.split("=")[-1]) > 0
        x_cold = pd._active_set(spec, np.arange(spec.n))[0]
        np.testing.assert_allclose(x, x_cold, rtol=0, atol=1e-12)


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


class TestSupportIndices:
    """polish_support and kkt_check read a support the same way."""

    @pytest.mark.parametrize("check", ["polish_support", "kkt_check"])
    @pytest.mark.parametrize("make, bad", [
        (lambda n: (-1,), "[-1] outside [0, 7)"),
        (lambda n: (n,), "[7] outside [0, 7)"),
        (lambda n: (0, n), "[7] outside [0, 7)"),
        (lambda n: (0, 0, 1), None),
        (lambda n: (0.5, 1), "[0.5] not integers"),
        (lambda n: (np.int64(0), 1.0), None),
        (lambda n: (True, 1), "[True] not integers"),
        (lambda n: (np.True_, 1), f"[{np.True_!r}] not integers"),
        (lambda n: (0, "2"), "['2'] not integers"),
    ], ids=["minus-one", "n", "zero-and-n", "repeated", "half", "numpy-int-and-integral-float",
            "bool", "numpy-bool", "str"])
    def test_out_of_range_rejected_and_repeat_counted_once(self, check, make, bad):
        spec = random_psd_instance(n=7, k=3, seed=2)
        support = make(spec.n)
        x, f = polish_support(spec, (0, 1))
        run = ((lambda: polish_support(spec, support)) if check == "polish_support"
               else (lambda: kkt_check(spec, x, support)))
        if bad is not None:
            with pytest.raises(BadSupport, match=re.escape(bad)):
                run()
        elif check == "polish_support":
            x_rep, f_rep = run()
            np.testing.assert_array_equal(x_rep, x)
            assert f_rep == f
        else:
            cert, ref = run(), kkt_check(spec, x, (0, 1))
            assert cert.support == ref.support == (0, 1)
            np.testing.assert_array_equal(cert.lam, ref.lam)
            assert (cert.beta, cert.max_residual) == (ref.beta, ref.max_residual)

    @pytest.mark.parametrize("support", [(0, 1), (0, 6)])
    def test_point_of_wrong_length_is_bad_dimension(self, support):
        spec = random_psd_instance(n=7, k=3, seed=2)
        with pytest.raises(BadDimension, match="x0 has length 5, expected 7"):
            polish_support(spec, support, np.ones(5))
        with pytest.raises(BadDimension, match="x has length 5, expected 7"):
            kkt_check(spec, np.ones(5) / 5, support)


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

        def recording_polish(spec, support, x0=None):
            supports.append(tuple(support))
            return polish(spec, support, x0)

        monkeypatch.setattr(pd, "polish_support", recording_polish)
        spec = factor_model_instance(226, 10, seed=0)
        ccmv_pd_solve(spec)
        assert 1 <= len(supports) <= 2
        assert all(len(support) <= spec.k for support in supports)

    def test_seed_support_polished_once(self, monkeypatch):
        # the final support is the seed's top-k support: its polish is reused
        supports = []
        polish = pd.polish_support

        def recording_polish(spec, support, x0=None):
            supports.append(tuple(int(i) for i in support))
            return polish(spec, support, x0)

        spec = factor_model_instance(226, 10, seed=0)
        y = y_step(dense_simplex_minimizer(spec), spec.k)
        monkeypatch.setattr(pd, "polish_support", recording_polish)
        sol = ccmv_pd_solve(spec)
        assert supports == [tuple(np.flatnonzero(y))]
        assert sol.support == supports[0]
        x, f = polish(spec, supports[0])
        np.testing.assert_array_equal(sol.weights, x)
        assert sol.objective == f

    def test_first_x_step_of_each_level_runs_once(self, monkeypatch):
        # the x-step that sets upsilon (first level) or probes the safeguard
        # (later levels) is the level's first; only a reset, which changes y,
        # makes the level compute its own
        calls = []
        step = pd.x_step

        def counting_x_step(fact, y):
            calls.append(1)
            return step(fact, y)

        monkeypatch.setattr(pd, "x_step", counting_x_step)
        specs = ([factor_model_instance(226, 10, seed=seed) for seed in range(3)]
                 + [monthly_returns_instance(100, 10, seed=seed) for seed in range(20)])
        resets = 0
        for spec in specs:
            calls.clear()
            _, trace, _, safeguard_resets = penalty_path(spec)
            assert trace[-1].infeas <= SolverConfig().eps_outer
            resets += safeguard_resets
            assert len(calls) == sum(r.inner_iters - r.jumps for r in trace) + safeguard_resets
        assert resets >= 1

    @pytest.mark.parametrize("max_outer", [1, 2])
    def test_capped_run_prepares_no_level_past_the_cap(self, monkeypatch, max_outer):
        # after the last allowed level no factorization is built, no probe
        # taken and no reset counted: each reset belongs to a level that ran
        rhos = []
        build = pd.build_factorization

        def recording_build(spec, rho):
            rhos.append(rho)
            return build(spec, rho)

        monkeypatch.setattr(pd, "build_factorization", recording_build)
        specs = ([factor_model_instance(226, 10, seed=seed) for seed in range(5)]
                 + [monthly_returns_instance(100, 10, seed=seed) for seed in range(10)])
        capped = 0
        cfg = SolverConfig(max_outer=max_outer)
        for spec in specs:
            rhos.clear()
            _, trace, _, safeguard_resets = penalty_path(spec, cfg)
            assert rhos == [r.rho for r in trace]
            assert "safeguard reset" not in trace[-1].note
            assert safeguard_resets == sum("safeguard reset" in r.note for r in trace)
            capped += trace[-1].infeas > cfg.eps_outer
        assert capped >= 1

    def test_converged_infeasibility(self):
        spec = random_psd_instance(n=6, k=2, seed=11)
        sol = ccmv_pd_solve(spec)
        assert sol.status == STATUS_CONVERGED
        assert sol.trace[-1].infeas <= 1e-4
        assert sol.kkt_residual <= 1e-6

    # support, objective, and inner iterations and jumps per level; the linear
    # algebra of the kernel and the jump may change their cost, not these
    REFERENCE_PATHS = {
        ("factor", 0): ((46, 83, 94, 109, 110, 126, 131, 140, 194, 203), -0.04340262146156829,
                        (3, 3, 3), (1, 1, 1)),
        ("factor", 1): ((7, 22, 49, 100, 118, 126, 127, 159, 163, 164), -0.04535234697344744,
                        (3, 3, 3), (1, 1, 1)),
        ("factor", 2): ((32, 76, 84, 109, 126, 144, 182, 191, 198, 200), -0.04295355474573491,
                        (3, 3, 3), (1, 1, 1)),
        ("monthly", 0): ((7, 33, 52, 80, 94), -0.0174788454032018, (6, 5, 3), (2, 2, 1)),
        ("monthly", 1): ((3, 20, 51, 79, 84, 99), -0.011512441676773446, (8, 7, 3), (3, 3, 1)),
        ("monthly", 2): ((1, 4, 16, 32, 44, 53), -0.018483392702032253, (6, 7, 3, 3), (2, 3, 1, 1)),
        # the benchmark's scale size, where lambda_max comes from Lanczos
        ("factor-1000", 0): ((58, 72, 255, 278, 530, 557, 611, 857, 894, 977), -0.023137433575944475,
                             (3, 3, 3), (1, 1, 1)),
    }
    INSTANCES = {
        "factor": lambda seed: factor_model_instance(226, 10, seed=seed),
        "monthly": lambda seed: monthly_returns_instance(100, 10, seed=seed),
        "factor-1000": lambda seed: factor_model_instance(1000, 10, seed=seed),
    }

    @pytest.mark.parametrize("kind, seed", sorted(REFERENCE_PATHS))
    def test_same_path_as_reference(self, kind, seed):
        spec = self.INSTANCES[kind](seed)
        support, f, iters, jumps = self.REFERENCE_PATHS[kind, seed]
        sol = ccmv_pd_solve(spec)
        trace = penalty_path(spec)[1]
        assert sol.support == support
        assert abs(sol.objective - f) <= 1e-10 * (1.0 + abs(f))
        assert tuple(r.inner_iters for r in trace) == iters
        assert tuple(r.jumps for r in trace) == jumps
        # the monthly seeds are k-sparse, so ccmv_pd_solve exits before the
        # loop; the factor seeds are not, and it builds the same levels
        assert sol.trace == ([] if kind == "monthly" else trace)

    # factor_model_instance gives the factor form; the same paths in the dense form
    @pytest.mark.parametrize("kind, seed", sorted(k for k in REFERENCE_PATHS if k[0].startswith("factor")))
    def test_same_path_as_reference_in_dense_form(self, kind, seed):
        spec = self.INSTANCES[kind](seed)
        assert spec.cov.factored
        support, f, iters, jumps = self.REFERENCE_PATHS[kind, seed]
        sol = ccmv_pd_solve(dense(spec))
        assert sol.support == support
        assert abs(sol.objective - f) <= 1e-10 * (1.0 + abs(f))
        assert tuple(r.inner_iters for r in sol.trace) == iters
        assert tuple(r.jumps for r in sol.trace) == jumps

    @pytest.mark.parametrize("make", [
        lambda: factor_model_instance(226, 10),
        lambda: monthly_returns_instance(100, 10),  # a safeguard reset on its first level
    ], ids=["factor", "monthly"])
    def test_one_debug_event_per_level(self, make, caplog):
        spec = make()
        with caplog.at_level(logging.DEBUG, logger="ccmv"):
            trace = penalty_path(spec)[1]
        pattern = re.compile(r"pd level: rho=(\S+) inner_iters=(\d+) jumps=(\d+) "
                             r"q=(\S+) infeas=(\S+) note=(.*)")
        events = [pattern.fullmatch(r.getMessage()) for r in caplog.records
                  if r.getMessage().startswith("pd level:")]
        assert len(events) == len(trace) >= 2
        for event, rec in zip(events, trace):
            rho, iters, jumps, q, infeas, note = event.groups()
            assert (float(rho), int(iters), int(jumps), float(q), float(infeas), note) == (
                rec.rho, rec.inner_iters, rec.jumps, rec.q, rec.infeas, rec.note)

    def test_deterministic(self):
        spec = random_psd_instance(n=9, k=3, seed=13)
        s1 = ccmv_pd_solve(spec)
        s2 = ccmv_pd_solve(spec)
        np.testing.assert_array_equal(s1.weights, s2.weights)
        assert s1.objective == s2.objective

    def test_solution_dict_schema(self):
        sol = ccmv_pd_solve(random_psd_instance(n=5, k=2, seed=1))
        d = solution_to_dict(sol)
        assert set(d) >= {"weights", "support", "objective", "kkt", "status", "trace"}
        assert set(d["kkt"]) == {"beta", "stationarity", "dual_violation", "complementarity"}
        assert all({"rho", "inner_iters", "q", "infeas"} <= set(r) for r in d["trace"])


def _exit_cases():
    """Instances whose seed is k-sparse and instances whose seed is not.

    The backtest's windows (monthly_returns_instance(100, 10): every seed
    k-sparse), k = n, and the sandwich's factor_model_instance(10, 4 or 5),
    about a quarter of whose seeds are k-sparse.
    """
    return ([monthly_returns_instance(100, 10, seed=seed) for seed in range(20)]
            + [random_psd_instance(n=6, k=6, seed=seed) for seed in range(5)]
            + [factor_model_instance(10, k, seed=seed) for k in (4, 5) for seed in range(20)])


def _seed_is_k_sparse(spec):
    return np.count_nonzero(dense_simplex_minimizer(spec)) <= spec.k


class TestSeedExit:
    def test_taken_exactly_when_the_seed_is_k_sparse(self, monkeypatch):
        builds = []
        build = pd.build_factorization

        def recording_build(spec, rho):
            builds.append(rho)
            return build(spec, rho)

        monkeypatch.setattr(pd, "build_factorization", recording_build)
        cases = _exit_cases()
        exits = 0
        for case, spec in enumerate(cases):
            builds.clear()
            sparse = _seed_is_k_sparse(spec)
            sol = ccmv_pd_solve(spec)
            assert (not builds) == sparse, case
            assert len(sol.trace) == len(builds), case
            exits += sparse
        assert 25 < exits < len(cases)  # every monthly and k = n case, not every sandwich

    def test_returns_the_seeds_polish(self):
        for spec in filter(_seed_is_k_sparse, _exit_cases()):
            seed = dense_simplex_minimizer(spec)
            x, f = polish_support(spec, np.flatnonzero(seed))
            sol = ccmv_pd_solve(spec)
            assert sol.weights.tobytes() == x.tobytes()
            assert sol.objective == f
            assert sol.kkt_residual <= 1e-8
            assert (sol.status, sol.trace, sol.safeguard_resets) == (STATUS_CONVERGED, [], 0)
            assert sol.upsilon == objective_f(spec, make_feasible_point(spec))
            # the relaxation's minimum, reached: the certificate of global optimality
            assert sol.lower_bound == objective_f(spec, seed)
            assert abs(sol.objective - sol.lower_bound) <= 1e-14 * (1.0 + abs(f))

    def test_global_optimum_on_sandwich_instances(self):
        solved = 0
        for k in (4, 5):
            for seed in range(40):
                spec = factor_model_instance(10, k, seed=seed)
                if not _seed_is_k_sparse(spec):
                    continue
                f_opt = brute_force_solve(spec).objective
                assert abs(ccmv_pd_solve(spec).objective - f_opt) <= 1e-12 * (1.0 + abs(f_opt)), (k, seed)
                solved += 1
        assert solved >= 10

    @pytest.mark.parametrize("make", [
        lambda: factor_model_instance(226, 10),
        lambda: monthly_returns_instance(100, 10),
    ], ids=["levels", "exit"])
    def test_one_exit_event_and_no_level_event(self, make, caplog):
        spec = make()
        nonzeros = np.count_nonzero(dense_simplex_minimizer(spec))
        with caplog.at_level(logging.DEBUG, logger="ccmv"):
            sol = ccmv_pd_solve(spec)
        messages = [r.getMessage() for r in caplog.records]
        exits = [m for m in messages if m.startswith("pd exit:")]
        levels = [m for m in messages if m.startswith("pd level:")]
        if nonzeros <= spec.k:
            assert exits == [f"pd exit: seed has {nonzeros} <= k = {spec.k} nonzeros"]
            assert levels == []
        else:
            assert exits == []
            assert len(levels) == len(sol.trace) >= 1


class TestLowerBound:
    @pytest.mark.parametrize("solve", [ccmv_pd_solve, ccmv_padm_solve], ids=["pd", "padm"])
    @pytest.mark.parametrize("make", [
        lambda: factor_model_instance(226, 10, seed=0),
        lambda: factor_model_instance(226, 3, seed=1),
        lambda: monthly_returns_instance(100, 10, seed=0),
    ], ids=["factor", "binding", "monthly"])
    def test_f_of_the_seed_below_the_objective(self, solve, make):
        spec = make()
        sol = solve(spec)
        assert sol.lower_bound == objective_f(spec, dense_simplex_minimizer(spec))
        assert sol.lower_bound <= sol.objective + 1e-14 * (1.0 + abs(sol.objective))

    def test_oracle_leaves_it_unknown(self):
        assert np.isnan(brute_force_solve(factor_model_instance(10, 4, seed=0)).to_solution().lower_bound)
