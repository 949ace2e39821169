"""Exception types shared across the package."""


class QPSpecError(Exception):
    """Base class for all package-specific errors."""


class SiteBudgetError(QPSpecError):
    """A lattice set would exceed the configured site budget."""


class LadderRangeError(QPSpecError):
    """A lattice vector falls outside the range covered by the scale ladder."""


class SingularBlockError(QPSpecError):
    """A pivot block in a Schur elimination is singular within tolerance."""


class RegimeError(QPSpecError):
    """An operation was invoked outside its resonance-regime precondition."""


class GeometryError(QPSpecError):
    """A multiscale set construction violated one of its structural laws."""


class CombinatorialBudgetError(QPSpecError):
    """An exhaustive enumeration would exceed its configured budget."""


class EpsilonTooLargeError(QPSpecError):
    """A coupling bound was requested outside its smallness hypothesis."""


class ConvergenceError(QPSpecError):
    """An iterative solve failed to converge within its step budget."""


class ReconciliationError(QPSpecError):
    """Two independent computation routes disagree beyond tolerance."""
