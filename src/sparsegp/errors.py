"""Exception types shared across the library."""


class SparseGPError(Exception):
    """Base class for all library errors."""


class AsymmetricInputError(SparseGPError):
    """Matrix handed to a symmetric factorization is not symmetric."""


class NotFactorizableError(SparseGPError):
    """Cholesky factorization failed at every jitter level."""


class NotPositiveDefiniteError(SparseGPError):
    """A factor extension hit a nonpositive pivot (linearly dependent point)."""


class IndexOutOfRangeError(SparseGPError, IndexError):
    """Row/column index outside the factor's dimension."""


class DimensionMismatchError(SparseGPError, ValueError):
    """Operand shapes are inconsistent."""


class InvalidHyperparameterError(SparseGPError, ValueError):
    """Kernel, density or schedule hyperparameter outside its domain."""


class QuadratureTooCoarseError(SparseGPError):
    """Numeric spectral oracle failed its orthonormality/accuracy checks."""


class DuplicateInducingPointError(SparseGPError):
    """Inducing point set contains repeated input locations."""


class NoConvergenceError(SparseGPError):
    """Iterative eigenvalue estimate did not reach tolerance."""


class DenseLimitExceededError(SparseGPError):
    """Requested an O(N^3) dense computation beyond the configured limit."""


class NegativeVarianceError(SparseGPError):
    """Predictive variance fell below the numerical floor."""


class NumericalInconsistencyError(SparseGPError):
    """A quantity violated a mathematical invariant beyond round-off tolerance."""


class MTooLargeError(SparseGPError, ValueError):
    """Requested subset size exceeds the number of candidates."""


class DegenerateKernelError(SparseGPError):
    """Greedy selection ran out of linearly independent columns."""


class EnumerationTooLargeError(SparseGPError):
    """Subset enumeration would exceed the desk-scale budget."""


class InvalidEpsilonError(SparseGPError, ValueError):
    """Total-variation tolerance outside (0, 1)."""


class InvalidConfidenceError(SparseGPError, ValueError):
    """Confidence level delta outside (0, 1)."""


class OrderTooSmallError(SparseGPError, ValueError):
    """Smoothness order makes the inducing-count schedule vacuous."""


class OrderingViolationError(SparseGPError):
    """Inputs violate a required ordering (e.g. largest eigenvalue above trace)."""


class EigenFailureError(SparseGPError):
    """Dense eigendecomposition failed or produced nonpositive leading values."""


class ConfigError(SparseGPError, ValueError):
    """Experiment configuration file is malformed."""
