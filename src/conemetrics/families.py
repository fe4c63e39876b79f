"""The two built-in metric families and their pole-position constraints.

Heart family
    One real parameter ``beta`` in (0, 1) (plus the metric constant c).
    The differential is ``z / ((z - 1)(z + gamma/beta)) dz`` with
    ``gamma = 1 - beta``: simple poles of residue beta and gamma, an
    implied residue -1 at infinity (a smooth point), and one simple zero
    at the origin carrying the 4 pi cone.

Three-football family
    Angle data (alpha, beta, gamma) with poles of residue
    (-beta, alpha+beta, gamma) at positions (P_beta, P_alpha, P_gamma).
    Demanding simple zeros at 0 and 1 forces

        g(0) = g(1) = 0,
        g(z) = -beta (z-P_alpha)(z-P_gamma) + (alpha+beta)(z-P_beta)(z-P_gamma)
               + gamma (z-P_beta)(z-P_alpha),

    a pair of quadratic constraints cutting a complex one-dimensional
    variety.  Fixing P_beta, eliminating P_alpha through g(0) = 0 leaves a
    quadratic in P_gamma whose two roots are the two branches solved here:
    the minus branch is (-b + s) / 2a, with s the square root of the
    discriminant continued from its positive value at P_beta = 0 along the
    segment t P_beta, passing above every zero within 0.05 of it.

The quadratic's coefficients are derived numerically (exact degree-2
interpolation of the eliminated constraint), never transcribed, which
keeps the solver immune to transcription slips; the coefficients are
cross-checked against the expected closed form in the test suite.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from . import metric as metric_mod
from .errors import (
    BadAngle,
    CollidingPoles,
    ConstraintViolated,
    DegenerateQuadratic,
    DivisionByZero,
    DoubleRoot,
    ModulusOutOfRange,
)
from .forms import CharacterForm, make_form

#: chart distance under which two marked points count as colliding and the
#: solver raises ``CollidingPoles``; ``MetricParams.mark_at`` tells marked
#: points apart by matching positions to the same 1e-9
COLLISION_TOL = 1e-9

#: relative bound the solved triples must satisfy on both constraints
RESIDUAL_TOL = 1e-10

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# heart family

@dataclass(frozen=True)
class HeartParams:
    """Heart-family parameters: cone split beta and log-scale constant."""

    beta: float
    c_log: float = 0.0

    def __post_init__(self):
        b = float(self.beta)
        if not (0.0 < b < 1.0) or not math.isfinite(b):
            raise BadAngle(f"heart parameter beta must lie in (0, 1), got {b!r}")
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "c_log", float(self.c_log))

    @property
    def gamma(self) -> float:
        return 1.0 - self.beta


def heart_form(beta: float) -> CharacterForm:
    """The heart differential z / ((z-1)(z + gamma/beta)) dz as pole data."""
    if not (0.0 < beta < 1.0):
        raise BadAngle(f"beta must lie in (0, 1), got {beta!r}")
    gamma = 1.0 - beta
    return make_form([(1.0 + 0.0j, beta), (complex(-gamma / beta, 0.0), gamma)])


def heart_metric(params: HeartParams) -> metric_mod.MetricParams:
    return metric_mod.MetricParams(heart_form(params.beta), params.c_log)


def heart_apex_image(params: HeartParams) -> float:
    """|w0| = |F(0)| = e^{c/2} (gamma/beta)^gamma, the developing image of the apex.

    The modulus is branch independent even though F(0) itself carries the
    (-1)^beta phase ambiguity.  Raises ``ModulusOutOfRange`` where it overflows.
    """
    try:
        w0 = math.exp(0.5 * params.c_log) * (params.gamma / params.beta) ** params.gamma
        if w0 < math.inf:
            return w0
    except OverflowError:
        pass
    raise ModulusOutOfRange(f"|F(0)| = e^(c/2) (gamma/beta)^gamma overflows at c = {params.c_log}")


# ---------------------------------------------------------------------------
# three-football family

class Branch(enum.Enum):
    """Which root of the pole-position quadratic to take."""

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class AngleTriple:
    """Cone-angle data (alpha, beta, gamma) for the three-football family.

    Only positivity is enforced.  Genericity (beta, gamma, alpha+beta,
    alpha+gamma all non-integer) is what pins the residue distribution
    uniquely, but integer values still produce valid metrics - the marked
    point just degenerates to a smooth point or an exact 2 pi k cone.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = float(getattr(self, name))
            if not (v > 0.0 and math.isfinite(v)):
                raise BadAngle(f"angle {name} must be a positive real, got {v!r}")
            object.__setattr__(self, name, v)


def special_case_angles(alpha: float = 1.0) -> AngleTriple:
    """The symmetric angle choice alpha = gamma, beta = (1 + sqrt 2)/2 * alpha."""
    return AngleTriple(alpha, (1.0 + SQRT2) / 2.0 * alpha, alpha)


def constraint_residual(angles: AngleTriple, p_alpha, p_beta, p_gamma) -> tuple[float, float]:
    """Relative residuals (|g(0)|, |g(1)|) / scale for an arbitrary triple.

    Each residual is normalised by the largest of 1 and the three summand
    magnitudes, so the answer stays meaningful across wildly different
    pole scales.
    """
    al, be, ga = angles.alpha, angles.beta, angles.gamma
    pa, pb, pg = complex(p_alpha), complex(p_beta), complex(p_gamma)

    t1 = -be * pa * pg
    t2 = (al + be) * pb * pg
    t3 = ga * pb * pa
    scale0 = max(1.0, abs(t1), abs(t2), abs(t3))
    r0 = abs(t1 + t2 + t3) / scale0

    u1 = -be * (1.0 - pa) * (1.0 - pg)
    u2 = (al + be) * (1.0 - pb) * (1.0 - pg)
    u3 = ga * (1.0 - pb) * (1.0 - pa)
    scale1 = max(1.0, abs(u1), abs(u2), abs(u3))
    r1 = abs(u1 + u2 + u3) / scale1
    return r0, r1


def _eliminated_constraint(angles: AngleTriple, p_beta: complex, x: complex) -> complex:
    """g(1) with P_alpha eliminated via g(0)=0, cleared of its denominator.

    Writing N = (alpha+beta) P_beta x and D = beta x - gamma P_beta (so that
    P_alpha = N / D), this is g(1) * D - a polynomial of degree two in x
    evaluated division-free.
    """
    al, be, ga = angles.alpha, angles.beta, angles.gamma
    d = be * x - ga * p_beta
    n = (al + be) * p_beta * x
    return (-be * (d - n) * (1.0 - x)
            + (al + be) * (1.0 - p_beta) * (1.0 - x) * d
            + ga * (1.0 - p_beta) * (d - n))


def derive_pole_quadratic(angles: AngleTriple, p_beta: complex) -> tuple[complex, complex, complex]:
    """Coefficients (a, b, c) of the quadratic in P_gamma, by interpolation.

    Three samples of the eliminated constraint pin the degree-2 polynomial
    exactly; no coefficient is transcribed from a derivation by hand.
    """
    p_beta = complex(p_beta)
    node = max(1.0, abs(p_beta))
    q0 = _eliminated_constraint(angles, p_beta, 0.0)
    qp = _eliminated_constraint(angles, p_beta, node)
    qm = _eliminated_constraint(angles, p_beta, -node)
    a = (qp + qm - 2.0 * q0) / (2.0 * node * node)
    b = (qp - qm) / (2.0 * node)
    return a, b, q0


def _continued_sqrt_discriminant(angles: AngleTriple, p_beta: complex, disc: complex) -> complex:
    """``cmath.sqrt(disc)`` with the sign of the root continued from P_beta = 0.

    Along t * p_beta the discriminant is the quadratic
    D(t) = D(0) (1 - t/t1) (1 - t/t2) with D(0) = (beta (alpha + gamma))^2 > 0.
    Each factor 1 - t/t_i runs straight from 1 and meets the negative axis
    only when t_i lies on (0, 1], so the root continued from the positive one
    at t = 0 is beta (alpha + gamma) times the principal roots
    sqrt(1 - 1/t_i), where a zero with |Im t_i| < 0.05 and
    -0.05 < Re t_i < 1.05 is passed above: its factor is negated when
    Im t_i >= 0.  That product only picks the sign; ``disc`` is D(1).
    """
    def disc_at(t: float) -> complex:
        a, b, c = derive_pole_quadratic(angles, t * p_beta)
        return b * b - 4.0 * a * c

    # D(t) = d0 + qb t + qa t^2, and u_i = 1/t_i solve d0 u^2 + qb u + qa = 0
    d0 = disc_at(0.0)
    if d0 == 0.0:
        raise DegenerateQuadratic("the pole quadratic's discriminant (beta (alpha + gamma))^2 "
                                  "at P_beta = 0 underflows")
    qa = 2.0 * disc + 2.0 * d0 - 4.0 * disc_at(0.5)
    qb = disc - d0 - qa
    w = cmath.sqrt(qb * qb - 4.0 * d0 * qa)
    continued = 1.0 + 0.0j
    for u in ((-qb + w) / (2.0 * d0), (-qb - w) / (2.0 * d0)):
        # complex minus complex keeps Im(1 - u) = +0.0 for a real u, so a zero
        # on the segment takes the principal root before the negation below
        continued *= cmath.sqrt((1.0 + 0.0j) - u)
        t = 1.0 / u if u else math.inf
        if abs(t.imag) < 0.05 and -0.05 < t.real < 1.05 and t.imag >= 0.0:
            continued = -continued
    s = cmath.sqrt(disc)
    return -s if abs(s - continued) > abs(s + continued) else s


def solve_pole_positions(angles: AngleTriple, p_beta: complex,
                         branch: Branch = Branch.MINUS) -> tuple[complex, complex]:
    """Solve g(0) = g(1) = 0 for (P_alpha, P_gamma) at the given P_beta.

    P_gamma is the root (-b + s) / 2a of the interpolated quadratic on the
    minus branch and (-b - s) / 2a on the plus one, with s the square root of
    the discriminant continued from its positive value at P_beta = 0 along
    t * p_beta, passing above every zero within 0.05 of that segment (so at
    the special angles the minus branch lands on the (sqrt2 - 1)/2 root at
    p_beta = 1/2); P_alpha then follows from the elimination relation

        P_alpha = (alpha + beta) P_beta P_gamma / (beta P_gamma - gamma P_beta).
    """
    p_beta = complex(p_beta)
    if abs(p_beta) <= COLLISION_TOL or abs(p_beta - 1.0) <= COLLISION_TOL:
        raise CollidingPoles(f"p_beta = {p_beta} collides with a prescribed zero")
    al, be, ga = angles.alpha, angles.beta, angles.gamma

    a, b, c = derive_pole_quadratic(angles, p_beta)
    disc = b * b - 4.0 * a * c
    if not cmath.isfinite(disc):
        raise DegenerateQuadratic(f"the pole quadratic ({a}, {b}, {c}) overflows")
    scale = max(abs(a), abs(b), abs(c))
    if abs(a) <= 1e-12 * scale:
        raise DegenerateQuadratic(f"leading coefficient {a} is negligible against {scale}")
    if abs(disc) <= 1e-12 * (abs(b) * abs(b) + 4.0 * abs(a) * abs(c)):
        raise DoubleRoot(f"discriminant {disc} is numerically zero")

    s = _continued_sqrt_discriminant(angles, p_beta, disc)
    if branch is Branch.MINUS:
        p_gamma = (-b + s) / (2.0 * a)
    else:
        p_gamma = (-b - s) / (2.0 * a)

    denom = be * p_gamma - ga * p_beta
    if abs(denom) <= 1e-12 * (abs(be * p_gamma) + abs(ga * p_beta)):
        if be == ga:
            # clearing denominators adds the root P_gamma = P_beta when beta = gamma
            raise DivisionByZero(
                f"beta = gamma = {be!r}, and the {branch.value} branch picked the spurious "
                "root P_gamma = P_beta of the cleared pole quadratic, so beta P_gamma - "
                "gamma P_beta vanished while eliminating P_alpha; try the other branch")
        raise DivisionByZero("beta P_gamma - gamma P_beta vanished while eliminating P_alpha")
    p_alpha = (al + be) * p_beta * p_gamma / denom
    if not (cmath.isfinite(p_alpha) and cmath.isfinite(p_gamma)):
        raise DegenerateQuadratic(f"the pole positions ({p_alpha}, {p_gamma}) are not finite")

    _check_distinct((0.0, 1.0, p_alpha, p_beta, p_gamma))
    r0, r1 = constraint_residual(angles, p_alpha, p_beta, p_gamma)
    if max(r0, r1) > RESIDUAL_TOL:
        raise ConstraintViolated(f"solved triple has residuals ({r0:.2e}, {r1:.2e})")
    return p_alpha, p_gamma


def _check_distinct(points) -> None:
    pts = [complex(p) for p in points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < COLLISION_TOL:
                raise CollidingPoles(
                    f"marked points {pts[i]} and {pts[j]} are within {COLLISION_TOL}"
                )


def three_football_form(angles: AngleTriple, p_alpha, p_beta, p_gamma) -> CharacterForm:
    """Assemble the three-football differential, enforcing the constraints.

    Pole order and residues: (P_beta, -beta), (P_alpha, alpha+beta),
    (P_gamma, gamma); the implied residue at infinity is -(alpha+gamma).
    """
    pa, pb, pg = complex(p_alpha), complex(p_beta), complex(p_gamma)
    _check_distinct((0.0, 1.0, pa, pb, pg))
    r0, r1 = constraint_residual(angles, pa, pb, pg)
    if max(r0, r1) > RESIDUAL_TOL:
        raise ConstraintViolated(
            f"pole triple misses the zero placement: residuals ({r0:.2e}, {r1:.2e})"
        )
    return make_form([
        (pb, -angles.beta),
        (pa, angles.alpha + angles.beta),
        (pg, angles.gamma),
    ])


@dataclass(frozen=True)
class ThreeFootballParams:
    """Three-football family point: angles, P_beta, branch and amplitude.

    ``p_alpha`` and ``p_gamma`` are the solved companion positions; build
    instances through :func:`make_three_football` so they are always
    consistent with the constraints.
    """

    angles: AngleTriple
    p_beta: complex
    branch: Branch
    c_amp: float
    p_alpha: complex
    p_gamma: complex

    def __post_init__(self):
        if not (self.c_amp > 0.0 and math.isfinite(self.c_amp)):
            raise BadAngle(f"amplitude c_amp must be positive, got {self.c_amp!r}")

    @property
    def c_log(self) -> float:
        """Log-scale constant of the metric: |F|^2 = e^{potential + c_log}."""
        return 2.0 * math.log(self.c_amp)


def make_three_football(angles: AngleTriple, p_beta: complex,
                        branch: Branch = Branch.MINUS,
                        c_amp: float = 1.0) -> ThreeFootballParams:
    p_beta = complex(p_beta)
    p_alpha, p_gamma = solve_pole_positions(angles, p_beta, branch)
    return ThreeFootballParams(angles, p_beta, branch, float(c_amp), p_alpha, p_gamma)


def three_football_metric(params: ThreeFootballParams) -> metric_mod.MetricParams:
    form = three_football_form(params.angles, params.p_alpha, params.p_beta, params.p_gamma)
    return metric_mod.MetricParams(form, params.c_log)
