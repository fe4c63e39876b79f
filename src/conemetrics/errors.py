"""Exception hierarchy for conemetrics.

Every error raised on purpose by this package derives from
:class:`ConeMetricError`, so callers can catch one type at the boundary.
"""


class ConeMetricError(Exception):
    """Base class for all conemetrics errors."""


# ---------------------------------------------------------------------------
# differential construction and pointwise evaluation

class DuplicatePole(ConeMetricError):
    """Two pole entries share the same position."""


class ZeroResidue(ConeMetricError):
    """A pole was given residue zero (not a pole at all)."""


class EvalAtPole(ConeMetricError):
    """Evaluation requested within the guard radius of a pole."""


class DegenerateForm(ConeMetricError):
    """The numerator of the coefficient function vanishes identically."""


# ---------------------------------------------------------------------------
# family construction and the pole-position constraint solver

class BadAngle(ConeMetricError):
    """Cone-angle parameter outside its admissible range."""


class DegenerateQuadratic(ConeMetricError):
    """Leading coefficient of the pole-position quadratic is (numerically) zero."""


class DoubleRoot(ConeMetricError):
    """The pole-position quadratic has a (numerically) repeated root."""


class CollidingPoles(ConeMetricError):
    """Two of the marked points fell within the collision threshold."""


class DivisionByZero(ConeMetricError):
    """The pole-elimination relation divides by a (numerically) zero quantity."""


class ConstraintViolated(ConeMetricError):
    """A pole triple does not satisfy the zero-placement constraints."""


# ---------------------------------------------------------------------------
# metric evaluation diagnostics

class StencilHitsSingularity(ConeMetricError):
    """A finite-difference stencil point landed on or too near a singularity."""


class ModulusOutOfRange(ConeMetricError):
    """The developing modulus |F| = e^{s/2} over- or underflows the float range."""


class NotASingularPoint(ConeMetricError):
    """Cone-angle estimate requested at a point that is neither pole, zero nor infinity."""


class QuadratureNearPole(ConeMetricError):
    """A cone-angle contour would pass within three radii of another singular point."""


# ---------------------------------------------------------------------------
# geodesics

class TraceDiverged(ConeMetricError):
    """A radial trace has no target, arrives at another marked point first, or stalls."""


class EndpointNotReached(ConeMetricError):
    """A traced path, or every lifted arc, stopped before reaching its target point."""
