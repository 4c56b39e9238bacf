import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from ccmv import ProblemSpec, objective_f
from ccmv.pd import polish_support


def assert_feasible(spec, weights, support, k=None):
    """Exact feasibility of a reported portfolio: budget, sign, hard sparsity."""
    k = k if k is not None else spec.k
    weights = np.asarray(weights, dtype=float)
    assert abs(weights.sum() - 1.0) <= 1e-8
    assert weights.min() >= -1e-10
    assert len(support) <= k
    off = np.setdiff1d(np.arange(spec.n), np.array(support, dtype=int))
    assert np.all(weights[off] == 0.0), "off-support weights must be exact zeros"


def enumerate_restricted_qp(spec, support):
    """Reference solve of the QP restricted to a support, by zero-pattern enumeration.

    Independent of the active-set kernel and exponential in |support|: for
    each of the 2^|S| - 1 nonempty zero patterns it solves the equality KKT
    system of the face, and keeps the least-objective candidate that is
    primal feasible with nonnegative multipliers on its fixed-at-zero
    coordinates. Singular faces are skipped. Small supports only.
    """
    support = tuple(sorted(int(i) for i in support))
    best_x, best_f = None, np.inf
    for r in range(len(support), 0, -1):
        for pattern in itertools.combinations(support, r):
            idx = np.array(pattern)
            m = idx.size
            K = np.zeros((m + 1, m + 1))
            K[:m, :m] = 2.0 * spec.A[np.ix_(idx, idx)]
            K[:m, m] = 1.0
            K[m, :m] = 1.0
            rhs = np.append(spec.tau * spec.mu[idx], 1.0)
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            xs, beta = sol[:m], float(sol[m])
            if xs.min() < -1e-12:
                continue
            x = np.zeros(spec.n)
            x[idx] = np.maximum(xs, 0.0)
            x[idx] += (1.0 - x.sum()) / m
            # multipliers of the coordinates this pattern pins to zero
            g = 2.0 * (spec.A @ x) - spec.tau * spec.mu
            zero_idx = [i for i in support if i not in pattern]
            if zero_idx and min(g[i] + beta for i in zero_idx) < -1e-9:
                continue
            fx = objective_f(spec, x)
            if fx < best_f:
                best_x, best_f = x, fx
    assert best_x is not None, f"no feasible candidate within support {support}"
    return best_x, best_f


def enumerate_supports(spec):
    """Reference global solve by exhaustive support enumeration: (x, f(x)).

    Solves the restricted QP on every one of the C(n, k) size-k supports and
    keeps the least (objective, support). Independent of the oracle's
    branch-and-bound search; exponential in k, so small instances only.
    """
    best = None
    for support in itertools.combinations(range(spec.n), spec.k):
        x, fx = polish_support(spec, support)
        if best is None or (fx, support) < best[:2]:
            best = (fx, support, x)
    return best[2], best[0]


@st.composite
def degenerate_specs(draw, max_n):
    """A small instance (k = n) with one of the degenerate structures.

    Rank-deficient A with no ridge, a duplicated asset (same row of the
    factor and same mu), tied mu, or generic; tau from 1e-6 to 1e6.
    """
    n = draw(st.integers(1, max_n))
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
    return ProblemSpec(0.5 * (A + A.T), mu, tau=tau, k=n)


def dense(spec):
    """The same instance with its covariance given as the dense matrix spec.A.

    For tests of the dense solve path (Cholesky levels, the dense spectral
    checks) on instances that factor_model_instance and, for wide windows,
    monthly_returns_instance return in factor form.
    """
    return ProblemSpec(spec.A, spec.mu, tau=spec.tau, k=spec.k)


@pytest.fixture
def toy_spec():
    """n=3 identity instance: global optimum for k=1 is e_0 with f = 0.7."""
    return ProblemSpec(A=np.eye(3), mu=np.array([0.3, 0.2, 0.1]), tau=1.0, k=1)
