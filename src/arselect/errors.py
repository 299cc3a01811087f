"""Exception types raised across the package.

Every error derives from :class:`ValidationError` (a model or request
that can never be served; the command line exits 2) or
:class:`NumericalError` (data that defeats a computation on a valid
request; exit 3), both under :class:`ArSelectError`.  Below those two
bases the class name itself is the diagnostic.
"""


class ArSelectError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ArSelectError):
    """A model or request that no input data could make servable."""


class NumericalError(ArSelectError):
    """Valid input on which a computation cannot be carried out."""


# --- model validation -------------------------------------------------------

class NonStationaryError(ValidationError):
    """Coefficients lie on or outside the stationarity boundary."""


class ZeroLeadCoefficientError(ValidationError):
    """The highest-lag coefficient is zero, so the declared order is wrong."""


class NonPositiveVarianceError(ValidationError):
    """The innovation variance must be strictly positive."""


class OutOfDomainError(ValidationError):
    """A parameter falls outside the domain a formula is valid on."""


# --- population-level computations ------------------------------------------

class SingularGammaError(NumericalError):
    """A population autocovariance matrix failed the conditioning guard."""


class InsufficientLagsError(NumericalError):
    """An autocovariance table does not extend far enough for the request."""


class UnderspecifiedOrderError(ValidationError):
    """The requested order is below the range a formula is defined on."""


class DegenerateHorizonError(ValidationError):
    """Every projection coefficient vanishes at this horizon."""


# --- sample-based computations ----------------------------------------------

class TooFewObservationsError(NumericalError):
    """The series is too short for the requested moment or fit."""


class SingularMomentError(NumericalError):
    """A sample moment matrix is numerically singular."""


class NoValidStartError(NumericalError):
    """No starting time passes the well-definedness probe for the APE sum."""


class SeriesOverflowError(NumericalError):
    """The series is so large that its sums of squared values overflow."""


class LengthMismatchError(NumericalError):
    """Two sequences that must align have different lengths."""


class SubsetTooLargeError(ValidationError):
    """The lag window is too wide for exhaustive subset enumeration."""
