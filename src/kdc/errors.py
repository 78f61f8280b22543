"""Exception types for contract violations.

Every error condition named in the module contracts maps to one of these, so
callers (and the CLI) can distinguish bad inputs from numerical failures.
"""


class KdcError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(KdcError, ValueError):
    """An argument is outside its documented range."""


class DomainError(KdcError, ValueError):
    """A point lies outside the function's domain."""


class IndivisibleDataError(KdcError, ValueError):
    """The partition count does not divide the sample size."""


class DivergenceError(KdcError, ArithmeticError):
    """An iterate left the trust region: an SGM step that is non-finite or has
    |step| > 1e12, or model coefficients or modes that are non-finite."""


class EigendecompositionError(KdcError, ArithmeticError):
    """The symmetric eigensolver failed to converge or the matrix is not
    close enough to positive semidefinite for the clamping policy."""


class KernelMismatchError(KdcError, ValueError):
    """A model was evaluated against a problem whose kernel it was not
    trained with (e.g. spectral-exact risk for another problem's model), or
    models trained with different kernels were combined."""


class DegenerateInputError(KdcError, ValueError):
    """Fit input carries no usable signal (e.g. all sample sizes equal)."""


class InsufficientDataError(KdcError, ValueError):
    """Not enough successful records to perform the requested analysis."""


class InvalidRegimeError(KdcError, ValueError):
    """Unknown parameter-planning regime tag."""


class ConstraintViolationError(KdcError, ValueError):
    """A regime's standing assumption is violated by the given inputs."""
