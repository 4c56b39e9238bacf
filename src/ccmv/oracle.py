"""Exact global solver for small instances.

Ground truth for the local solvers: a depth-first branch-and-bound search
over supports. Every node's bound is the convex relaxation that drops the
cardinality constraint, the minimum of f over the simplex on the node's
assets (Bienstock, Math. Prog. 74, 1996), solved exactly by the finite
active-set kernel that PD's polish uses. The search stays behind the same
a-priori C(n,k) budget that guarded the exhaustive support enumeration it
replaced; the cost per node is polynomial for any k.
"""

from __future__ import annotations

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
    objective_f,
    validate_problem,
)
# every restricted solve, under the name benchmark/run.py traces and tests patch
from .pd import polish_support as restricted_qp_solve

log = logging.getLogger("ccmv")

MAX_SUPPORTS = 10**6


@dataclass
class OracleResult:
    """Globally optimal portfolio of a small instance.

    support holds every nonzero of x and at most k assets; supports_examined
    counts the restricted solves of the search, and wall_time its seconds.
    """

    x: np.ndarray
    support: tuple[int, ...]
    objective: float
    supports_examined: int
    wall_time: float

    def to_solution(self) -> Solution:
        spec_support = tuple(int(i) for i in np.flatnonzero(self.x != 0.0))
        return Solution(
            weights=self.x,
            support=spec_support,
            objective=self.objective,
            kkt=None,
            status=STATUS_CONVERGED,
            solver="oracle",
            wall_time=self.wall_time,
        )


def brute_force_solve(spec: ProblemSpec) -> OracleResult:
    """Global minimum of the k-sparse problem by branch and bound over supports.

    A node fixes the assets I into the support and leaves U undecided; its
    bound is the restricted solve on I + U, the minimum over every support
    of the subtree with the cardinality constraint dropped. A node whose
    bound is no better than the incumbent is pruned. A relaxed x with at
    most k nonzeros is feasible, so it is the subtree's minimum and closes
    it. Otherwise the undecided asset with the largest weight in x (ties:
    lowest index) is branched on. The include child keeps the parent's index
    set and so its x. The exclude child gets x with that asset taken out and
    the rest rescaled to sum 1: f there bounds the child's relaxation from
    above, so the relaxation is solved, when the child is popped, only if
    that f is no better than the incumbent, the one case where it can prune,
    or if I + U has at most k assets, when it is the subtree's one support.
    Once |I| = k - 1 each support I + {j} is solved directly; with k = 1
    that is the root, whose relaxation no incumbent could prune yet.

    The search is depth first from an explicit stack, include child first,
    so the first dive gives the incumbent; ties keep the first optimum found.
    Every restricted solve goes through restricted_qp_solve and starts warm
    from the node's point: an exclude child's relaxation from its rescaled
    x, and each support I + {j} from the node's x on it (cold where that
    has fewer than two positive entries, as at the root).
    """
    t0 = time.perf_counter()
    validate_problem(spec)
    n, k = spec.n, spec.k
    n_supports = math.comb(n, k)
    if n_supports > MAX_SUPPORTS:
        raise TooLarge(f"C({n},{k}) = {n_supports} exceeds budget {MAX_SUPPORTS}")
    best_f, best_x, best_support = np.inf, None, ()
    solves = 0
    # (I, U, a point of the simplex on I + U or None, whether the node needs
    # no relaxation of its own)
    stack = [((), tuple(range(n)), None, k == 1)]
    while stack:
        fixed, free, x, settled = stack.pop()
        if not settled and (x is None or len(fixed) + len(free) <= k
                            or objective_f(spec, x) >= best_f):
            x, fx = restricted_qp_solve(spec, fixed + free, x0=x)
            solves += 1
            if fx >= best_f:
                continue
            nonzero = np.flatnonzero(x)
            if nonzero.size <= k:
                best_f, best_x, best_support = fx, x, tuple(int(i) for i in nonzero)
                continue
        if len(fixed) == k - 1:
            for j in free:
                support = tuple(sorted(fixed + (j,)))
                xs, fs = restricted_qp_solve(spec, support, x0=x)
                solves += 1
                if fs < best_f:
                    best_f, best_x, best_support = fs, xs, support
            continue
        pick = int(np.argmax(x[list(free)]))
        rest = free[:pick] + free[pick + 1:]
        out = x.copy()
        out[free[pick]] = 0.0
        mass = out.sum()
        stack.append((fixed, rest, out / mass if mass > 0.0 else None, False))
        stack.append((fixed + (free[pick],), rest, x, True))
    wall = time.perf_counter() - t0
    log.debug("oracle made %d restricted solves in %.3fs", solves, wall)
    return OracleResult(x=best_x, support=best_support, objective=best_f,
                        supports_examined=solves, wall_time=wall)
