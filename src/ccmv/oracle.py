"""Brute-force global solver for small instances.

Ground truth for the local solvers: enumerates every size-k support and
solves the convex QP restricted to each one exactly, with the finite
active-set kernel that PD's polish uses. The C(n,k) support loop is
exponential on purpose and guarded by a combinatorial budget; the cost per
support is polynomial for any k.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge
from .model import (
    ProblemSpec,
    Solution,
    STATUS_CONVERGED,
    objective_f,  # unused here; benchmark/run.py traces it as oracle.objective_f
    validate_problem,
)
# the per-support solve, under the name benchmark/run.py traces and tests patch
from .pd import polish_support as restricted_qp_solve

log = logging.getLogger("ccmv")

MAX_SUPPORTS = 10**6


@dataclass
class OracleResult:
    """Globally optimal portfolio of a small instance."""

    x: np.ndarray
    support: tuple[int, ...]
    objective: float
    supports_examined: int

    def to_solution(self) -> Solution:
        spec_support = tuple(int(i) for i in np.flatnonzero(self.x != 0.0))
        return Solution(
            weights=self.x,
            support=spec_support,
            objective=self.objective,
            kkt=None,
            status=STATUS_CONVERGED,
            solver="oracle",
        )


def brute_force_solve(spec: ProblemSpec) -> OracleResult:
    """Global minimum of the k-sparse problem by exhaustive support enumeration."""
    validate_problem(spec)
    n, k = spec.n, spec.k
    n_supports = math.comb(n, k)
    if n_supports > MAX_SUPPORTS:
        raise TooLarge(f"C({n},{k}) = {n_supports} exceeds budget {MAX_SUPPORTS}")
    t0 = time.perf_counter()
    best: tuple[float, tuple[int, ...], np.ndarray] | None = None
    for support in itertools.combinations(range(n), k):
        x, fx = restricted_qp_solve(spec, support)
        key = (fx, support)
        if best is None or key < (best[0], best[1]):
            best = (fx, support, x)
    fx, support, x = best
    log.debug("oracle examined %d supports in %.3fs", n_supports, time.perf_counter() - t0)
    return OracleResult(x=x, support=support, objective=fx, supports_examined=n_supports)
