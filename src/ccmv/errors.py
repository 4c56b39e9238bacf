"""Exception hierarchy shared by all ccmv modules."""


class CcmvError(Exception):
    """Base class for all ccmv errors."""


class BadData(CcmvError):
    """Input data contains non-finite or non-numeric entries."""


class InsufficientData(CcmvError):
    """Not enough observations to estimate moments."""


class BadDimension(CcmvError):
    """Vector/matrix shapes do not match the problem dimension."""


class InvalidSpec(CcmvError):
    """A ProblemSpec invariant is violated."""


class AsymmetricA(InvalidSpec):
    """Covariance matrix is not symmetric within tolerance."""


class NotPSD(InvalidSpec):
    """Covariance matrix has a significantly negative eigenvalue."""


class BadTau(InvalidSpec):
    """Trade-off parameter tau must be positive."""


class BadK(InvalidSpec):
    """Cardinality bound k must lie in [1, n]."""


class BadConfig(CcmvError):
    """A SolverConfig invariant is violated."""


class NumericalBreakdown(CcmvError):
    """A factorization failed unexpectedly."""


class MeritMismatch(NumericalBreakdown):
    """The inner-loop merit disagrees with the exact penalty value: a wrong x-step."""


class MonotonicityViolation(CcmvError):
    """The inner-loop merit value increased: implementation bug."""


class BadSupport(CcmvError):
    """Empty or oversized support set."""


class TooLarge(CcmvError):
    """Instance exceeds the brute-force combinatorial budget."""


class SharpeUndefined(CcmvError):
    """Zero risk with nonzero return: Sharpe ratio has no value."""


class SigmaUndefined(CcmvError):
    """Too few out-of-sample returns to estimate their deviation."""
