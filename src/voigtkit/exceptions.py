"""Exception types shared across the package."""

__all__ = ["DomainError", "ReflectionOverflowError", "OracleConvergenceError",
           "BenchmarkError"]


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain.

    ``index`` identifies the offending element for batch inputs,
    ``point`` the offending grid point for scans, when known.
    """

    def __init__(self, message, index=None, point=None):
        super().__init__(message)
        self.index = index
        self.point = point


class ReflectionOverflowError(OverflowError):
    """The reflected value 2*exp(-z^2) - w(-z) of a lower half-plane
    argument exceeded the binary64 range; the function value is not
    representable.  Also raised exactly on the diagonal |Re z| = |Im z|
    with components above sqrt(DBL_MAX) = 1.34e154, although |w| <= 2
    there: Re z*Im z, and so the phase of exp(-z^2), is not representable."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class OracleConvergenceError(RuntimeError):
    """The oracle's independent evaluation routes failed to converge or
    to agree at the certified precision."""


class BenchmarkError(RuntimeError):
    """A timing run is invalid (wrong results, unusable timer resolution,
    or a broken measurement protocol)."""
