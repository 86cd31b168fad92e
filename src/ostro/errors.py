"""Exception types shared across the package."""


class OstroError(Exception):
    """Base class for all package-specific errors."""


class RationalSquare(OstroError):
    """The radicand is the square of a rational, so sqrt(d) is not irrational."""


class UnsupportedRadicand(OstroError):
    """The radicand is outside the supported range (d must exceed 1).

    Radicands in (0, 1] have a longer pre-period; rescale with
    ``normalize_d`` first.
    """


class MixedRadicand(OstroError):
    """Two operands live in different quadratic fields."""


class DepthExceeded(OstroError):
    """The requested index is beyond the materialized expansion depth, or
    the period is longer than the search allows (cfrac.MAX_PERIOD)."""


class OutOfInterval(OstroError):
    """A real input lies outside the fundamental Ostrowski interval."""


class OutOfDomain(OstroError):
    """An input violates a domain precondition (e.g. a negative multiplicand)."""


class InvalidDigits(OstroError):
    """A digit string violates the Ostrowski digit constraints."""


class VerificationFailed(OstroError):
    """A derived quantity failed its exhaustive verification sweep."""


class WitnessUnavailable(OstroError):
    """No valid digit string realizes the requested witness pattern."""
