"""Exception types shared across the package."""


class CompdiffError(Exception):
    """Base class for all library-specific errors."""


class NonFinite(CompdiffError):
    """An expression evaluated to infinity or NaN where a finite value is required."""


class DivisionByZeroConstantTerm(CompdiffError):
    """Reciprocal of a power series whose constant term vanishes."""


class ExpOfSingularSeries(CompdiffError):
    """exp applied to a series that is not a valid truncated expansion."""


class ParseError(CompdiffError):
    """Malformed symbol specification or configuration entry."""


class DuplicatePoints(CompdiffError):
    """A point set whose separation is required holds (numerically) repeated points."""


class NotSelfMap(CompdiffError):
    """Boundary sampling found modulus above 1 for a symbol used as a self-map."""


class NumericalBreakdown(CompdiffError):
    """The SVD failed to converge."""


class BoundaryFixedOrigin(CompdiffError):
    """|phi(0)| >= 1, so the classical composition-operator norm bound is undefined."""


class CollidingImages(CompdiffError):
    """Images of the test sequence under the two symbols are not pairwise distinct."""


class ImageOnBoundary(CompdiffError):
    """An image point lies on (or outside) the unit circle."""


class EmptyRange(CompdiffError):
    """The radial sequence start index exceeds its end index."""


class DisconnectedLevelSet(CompdiffError):
    """The sampled boundary level-set curve splits into far components."""


class HorizonExceeded(CompdiffError):
    """A singular value beyond the truncation-stability horizon was requested."""


class WeightTooLarge(CompdiffError):
    """A weight with sup-norm above 1 was passed where contractive weights are required."""


class ZeroInWindow(CompdiffError):
    """The fit window contains a non-positive singular value."""


class WindowExceedsHorizon(CompdiffError):
    """The fit window extends beyond the spectrum's stability horizon."""
