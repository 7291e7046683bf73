"""Exception types raised across the package."""


class SepProjError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(SepProjError):
    """Inputs do not share a common ambient dimension."""


class AllDegenerateError(SepProjError):
    """Every input vector is numerically zero; nothing to orthonormalize."""


class DegenerateSimplexError(SepProjError):
    """Barycentric reference points are affinely dependent."""


class ActuallySeparableError(SepProjError):
    """A common hull point was requested for hulls that do not intersect."""


class InvalidCertificateError(SepProjError):
    """Convex-combination coefficients violate their invariants."""


class InvalidWitnessError(SepProjError):
    """Claimed containment witnesses fail their hull-membership checks."""


class BruteForceCapError(SepProjError):
    """Instance exceeds the configured brute-force size cap."""


class NotSeparableInputError(SepProjError):
    """A property that must be strictly separable on input is not."""


class DegeneratePositionError(SepProjError):
    """General-position assumption failed and could not be restored."""


class NotIntersectingError(SepProjError):
    """Projected hulls do not intersect, so there is nothing to perturb."""


class TooFewPointsError(SepProjError):
    """Not enough points to span the ambient space."""


class EmptySubspaceError(SepProjError):
    """Orthogonality constraints leave no direction to optimize over."""


class WitnessSearchExceededError(SepProjError):
    """Exhaustive witness search hit its size cap."""


class SamplingFailedError(SepProjError):
    """Rejection sampling exhausted its retry budget."""


class EpsilonTooLargeError(SepProjError):
    """Construction parameter violates its validity census."""


class BadParamsError(SepProjError):
    """Generator parameters outside their documented range."""


class InvariantViolationError(SepProjError):
    """Parsed data violates a point-set invariant."""


class LPError(SepProjError):
    """LP solver failure: HiGHS ended without a verdict, or its optimum failed
    the residual check."""
