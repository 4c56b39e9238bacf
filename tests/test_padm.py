import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccmv import (
    ProblemSpec,
    SolverConfig,
    brute_force_solve,
    ccmv_padm_solve,
    objective_f,
    padm_x_step,
    padm_y_step,
    validate_problem,
)
from ccmv.padm import _project_simplex
from ccmv.synthetic import random_psd_instance

from conftest import assert_feasible


def l1_objective(spec, rho, x, y):
    return objective_f(spec, x) + rho * float(np.abs(x - y).sum())


def x_step_oracle(spec, rho, y):
    """Exact minimizer of f(x) + rho*||x - y||_1 over the simplex, by piecewise
    enumeration: each coordinate is pinned at zero, pinned at y_i, or free with
    the l1 term locally linear of sign +-1. Each piece gives an equality-KKT
    linear system; feasible candidates are scored with the true objective.
    Only viable for small n.
    """
    n = spec.n
    best_x, best_v = None, np.inf
    # states: 0 -> x_i = 0, 1 -> x_i = y_i, 2 -> free with slope +rho, 3 -> slope -rho
    for states in itertools.product(range(4), repeat=n):
        free = [i for i in range(n) if states[i] >= 2]
        fixed = {i: (0.0 if states[i] == 0 else float(y[i])) for i in range(n)
                 if states[i] < 2}
        x = np.zeros(n)
        for i, v in fixed.items():
            x[i] = v
        if not free:
            if abs(x.sum() - 1.0) > 1e-10 or x.min() < -1e-12:
                continue
            v = l1_objective(spec, rho, x, y)
            if v < best_v:
                best_x, best_v = x.copy(), v
            continue
        idx = np.array(free)
        m = idx.size
        K = np.zeros((m + 1, m + 1))
        K[:m, :m] = 2.0 * spec.A[np.ix_(idx, idx)]
        K[:m, m] = 1.0
        K[m, :m] = 1.0
        slopes = np.array([rho if states[i] == 2 else -rho for i in free])
        off = [i for i in fixed]
        rhs_lin = spec.tau * spec.mu[idx] - slopes
        if off:
            rhs_lin = rhs_lin - 2.0 * spec.A[np.ix_(idx, np.array(off))] @ np.array(
                [fixed[i] for i in off])
        rhs = np.append(rhs_lin, 1.0 - sum(fixed.values()))
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            continue
        x[idx] = sol[:m]
        if x.min() < -1e-9 or abs(x.sum() - 1.0) > 1e-9:
            continue
        x = np.maximum(x, 0.0)
        x[idx[0]] += 1.0 - x.sum()
        if x.min() < -1e-12:
            continue
        v = l1_objective(spec, rho, x, y)
        if v < best_v:
            best_x, best_v = x.copy(), v
    return best_x, best_v


def y_step_cost(x, y):
    return float(np.abs(np.asarray(x) - np.asarray(y)).sum())


def y_step_oracle(x, k):
    """Brute-force l1 projection onto {e'y = 1, ||y||_0 <= k}: per support the
    optimum copies x and shifts the budget deficit onto one coordinate."""
    x = np.asarray(x, dtype=float)
    n = x.size
    best = np.inf
    for S in itertools.combinations(range(n), min(k, n)):
        idx = list(S)
        cost = float(np.abs(np.delete(x, idx)).sum()) + abs(1.0 - float(x[idx].sum()))
        best = min(best, cost)
    return best


@st.composite
def y_step_inputs(draw):
    """(x, k) for n <= 9 with ties, exact zeros, all-negative and simplex vectors."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, n))  # shrinks toward k = 1 and also draws k = n
    kind = draw(st.sampled_from(["ties-and-zeros", "negative", "simplex", "generic"]))
    if kind == "ties-and-zeros":
        palette = st.sampled_from([-2.0, -1.5, -0.5, 0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
        x = np.array(draw(st.lists(palette, min_size=n, max_size=n)))
    else:
        x = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
        if kind == "negative":
            x = -np.abs(x)
        elif kind == "simplex":
            x = np.abs(x) + 1e-3
            x /= x.sum()
    return x, k


class TestPadmXStep:
    def test_degenerate_rho_zero_symmetric(self):
        spec = ProblemSpec(np.eye(2), np.zeros(2), tau=1e-300, k=2)
        x = padm_x_step(spec, 1e-12, np.zeros(2), validate_problem(spec))
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-6)

    def test_large_rho_snaps_to_feasible_y(self):
        spec = random_psd_instance(n=4, k=2, seed=0)
        y = np.array([0.7, 0.3, 0.0, 0.0])
        x = padm_x_step(spec, 1e6, y, validate_problem(spec), tol=1e-12)
        np.testing.assert_allclose(x, y, atol=1e-4)

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(61)
        for seed in range(10):
            spec = random_psd_instance(n=6, k=3, seed=seed)
            y = padm_y_step(rng.normal(size=6), 3)
            x = padm_x_step(spec, float(rng.uniform(0.5, 5.0)), y, validate_problem(spec))
            assert abs(x.sum() - 1.0) <= 1e-8
            assert x.min() >= 0.0

    def test_matches_piecewise_oracle(self):
        rng = np.random.default_rng(67)
        for seed in range(8):
            spec = random_psd_instance(n=4, k=2, seed=seed)
            y = padm_y_step(rng.normal(size=4), 2)
            rho = float(rng.uniform(0.2, 2.0))
            x = padm_x_step(spec, rho, y, validate_problem(spec), tol=1e-12)
            _, v_star = x_step_oracle(spec, rho, y)
            assert l1_objective(spec, rho, x, y) <= v_star + 1e-5


class TestPadmYStep:
    def test_hand_example(self):
        y = padm_y_step(np.array([0.6, 0.3, 0.1]), 2)
        np.testing.assert_allclose(y, [0.7, 0.3, 0.0])
        assert y_step_cost([0.6, 0.3, 0.1], y) == pytest.approx(0.2)

    def test_feasible_input_unchanged(self):
        x = np.array([0.4, 0.6, 0.0])
        np.testing.assert_array_equal(padm_y_step(x, 2), x)

    def test_k_equals_n_single_shift(self):
        x = np.array([0.5, 0.2, 0.1])  # sums to 0.8, deficit 0.2 to coord 0
        np.testing.assert_allclose(padm_y_step(x, 3), [0.7, 0.2, 0.1])

    def test_feasibility_exact(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            y = padm_y_step(rng.normal(size=n), k)
            assert y.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.count_nonzero(y) <= k

    def test_cost_matches_brute_force(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            x = rng.normal(size=n)
            y = padm_y_step(x, k)
            assert y_step_cost(x, y) == pytest.approx(y_step_oracle(x, k), abs=1e-12)

    def test_wide_input_feasible_and_no_worse_than_top_k(self):
        rng = np.random.default_rng(79)
        x = rng.normal(size=40)
        y = padm_y_step(x, 5)
        assert y.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.count_nonzero(y) <= 5
        # never worse than the plain top-k support
        order = np.argsort(-np.abs(x))[:5]
        y0 = np.zeros(40)
        y0[order] = x[order]
        y0[order[0]] += 1.0 - y0.sum()
        assert y_step_cost(x, y) <= y_step_cost(x, y0) + 1e-12

    def test_mixed_signs_beyond_twenty_assets(self):
        # the best pair keeps 3 and -2 (cost 3.5), not the top-|x| pair 3 and 2 (cost 7.5)
        x = np.concatenate(([-1.0, 3.0, 0.5, 2.0, -2.0], np.zeros(16)))
        y = padm_y_step(x, 2)
        expected = np.zeros(21)
        expected[[1, 4]] = [3.0, -2.0]
        np.testing.assert_array_equal(y, expected)
        assert y_step_cost(x, y) == pytest.approx(3.5, abs=1e-12)
        assert y_step_cost(x, y) == pytest.approx(y_step_oracle(x, 2), abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(y_step_inputs())
    def test_property_matches_brute_force(self, case):
        x, k = case
        y = padm_y_step(x, k)
        assert y_step_cost(x, y) == pytest.approx(y_step_oracle(x, k), abs=1e-12)
        assert y.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(y) <= k


class TestCcmvPadmSolve:
    def test_toy_instance(self, toy_spec):
        sol = ccmv_padm_solve(toy_spec)
        assert_feasible(toy_spec, sol.weights, sol.support)
        assert sol.solver == "padm"
        assert sol.objective == pytest.approx(0.7, abs=1e-9)

    def test_k_equals_n_matches_oracle(self):
        for seed in range(5):
            spec = random_psd_instance(n=5, k=5, seed=seed)
            sol = ccmv_padm_solve(spec)
            res = brute_force_solve(spec)
            assert sol.objective <= res.objective + 1e-4

    def test_certified_and_feasible(self):
        for seed in range(10):
            spec = random_psd_instance(n=7, k=3, seed=seed)
            sol = ccmv_padm_solve(spec)
            assert_feasible(spec, sol.weights, sol.support)
            assert sol.kkt_residual <= 1e-6

    def test_deterministic(self):
        spec = random_psd_instance(n=8, k=3, seed=17)
        s1, s2 = ccmv_padm_solve(spec), ccmv_padm_solve(spec)
        np.testing.assert_array_equal(s1.weights, s2.weights)

    def test_trace_rho_geometric(self):
        spec = random_psd_instance(n=8, k=2, seed=19)
        sol = ccmv_padm_solve(spec, SolverConfig(zeta=10.0))
        rhos = [r.rho for r in sol.trace]
        for a, b in zip(rhos, rhos[1:]):
            assert b == pytest.approx(10.0 * a, rel=1e-12)


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
