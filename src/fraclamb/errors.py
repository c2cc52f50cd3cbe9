"""Exception hierarchy for fraclamb.

All library-specific failures derive from :class:`FracLambError` so callers
can distinguish numerical trouble from ordinary bad input (``ValueError``).
"""


class FracLambError(Exception):
    """Base class for all fraclamb errors."""


class DomainError(FracLambError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoDecayError(FracLambError):
    """The function carries no decay metadata.

    Improper integrals with lower limit -inf (or upper limit +inf in the
    radial direction) cannot be truncated without knowing how fast the
    integrand dies off.
    """


class UnsupportedOrderError(FracLambError):
    """A derivative of higher order than the function can provide was requested."""


class ConvergenceError(FracLambError):
    """Panel refinement hit the configured cap before the tolerance was met.

    Carries the last estimate and its error estimate so callers can decide
    whether the partial result is still usable.
    """

    def __init__(self, message, estimate=None, error_estimate=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class NotPositiveDefiniteError(FracLambError, ValueError):
    """Cholesky factorization failed or produced a negligible pivot."""


class DimensionCapError(FracLambError, ValueError):
    """The Cartesian lattice rule was requested above its supported dimension."""


class SelectorError(FracLambError, ValueError):
    """A function selector string could not be parsed."""
