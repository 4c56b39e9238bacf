"""Seeded synthetic instances for benchmarks: factor-model covariance, uniform returns."""

from __future__ import annotations

import numpy as np

from .model import ProblemSpec


def factor_model_instance(n: int, k: int, tau: float = 0.5, seed: int = 0) -> ProblemSpec:
    """A = G G' + d*I in factor form, G = F / sqrt(m) for n x m standard-normal loadings F.

    Fully seeded. m = max(5, n // 20); d = 0.01 * trace(G G') / n keeps the
    matrix well conditioned. mu is uniform on [0, 0.1]. No n x n array is
    made: the spec holds G and d, and ProblemSpec forms A only where the rank
    is not small beside n (FACTOR_RANK_RATIO), as below n = 20.
    """
    rng = np.random.default_rng(seed)
    m = max(5, n // 20)
    G = rng.standard_normal((n, m))
    G /= np.sqrt(m)
    G.setflags(write=False)  # ProblemSpec keeps a read-only array without copying it
    d = np.full(n, 0.01 * np.vdot(G, G) / n)
    mu = rng.uniform(0.0, 0.1, size=n)
    return ProblemSpec(G=G, d=d, mu=mu, tau=tau, k=k)


def monthly_returns_instance(n: int, k: int, tau: float = 0.5, seed: int = 0,
                             periods: int = 60) -> ProblemSpec:
    """Instance at realistic monthly-return scale, built through moment estimation.

    Its covariance is estimate_moments' C'C / (periods - 1): in factor form,
    of rank below periods, when 4 * periods <= n (FACTOR_RANK_RATIO), else dense.
    """
    from .model import ReturnsMatrix, estimate_moments

    rng = np.random.default_rng(seed)
    mean = rng.uniform(0.0, 0.02, size=n)
    m = max(3, n // 10)
    loadings = rng.standard_normal((n, m)) * 0.03
    factors = rng.standard_normal((periods, m))
    noise = rng.standard_normal((periods, n)) * 0.02
    R = mean + factors @ loadings.T + noise
    returns = ReturnsMatrix(R, tuple(f"A{i}" for i in range(n)))
    est = estimate_moments(returns)
    return ProblemSpec(cov=est.cov, mu=est.mu, tau=tau, k=k)


def random_psd_instance(n: int, k: int, tau: float = 0.5, seed: int = 0,
                        rank: int | None = None) -> ProblemSpec:
    """Dense random PSD instance for property harnesses."""
    rng = np.random.default_rng(seed)
    r = rank if rank is not None else n
    G = rng.standard_normal((n, r))
    A = G @ G.T / r + 1e-6 * np.eye(n)
    A = 0.5 * (A + A.T)
    mu = rng.uniform(0.0, 0.2, size=n)
    return ProblemSpec(A=A, mu=mu, tau=tau, k=k)
