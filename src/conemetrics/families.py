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
    quadratic in P_gamma whose two roots are the two branches solved here.

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
    ExcludedPoint,
)
from .forms import CharacterForm, make_form

#: chart-coordinate threshold under which marked points count as colliding;
#: below this, quadrature near the poles is unreliable at double precision
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
    (-1)^beta phase ambiguity.
    """
    return math.exp(0.5 * params.c_log) * (params.gamma / params.beta) ** params.gamma


# ---------------------------------------------------------------------------
# three-football family

class Branch(enum.Enum):
    """Which root of the pole-position quadratic to take."""

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class AngleTriple:
    """Cone-angle data (alpha, beta, gamma) for the three-football family.

    Positivity is enforced.  Genericity (beta, gamma, alpha+beta,
    alpha+gamma all non-integer) is what pins the residue distribution
    uniquely, but integer values still produce valid metrics - the marked
    point just degenerates to a smooth point or an exact 2 pi k cone - so
    it is reported by :meth:`is_generic` rather than enforced.
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

    def is_generic(self, tol: float = 1e-12) -> bool:
        vals = (self.beta, self.gamma, self.alpha + self.beta, self.alpha + self.gamma)
        return all(abs(v - round(v)) > tol for v in vals)


def special_case_angles(alpha: float = 1.0) -> AngleTriple:
    """The symmetric angle choice alpha = gamma, beta = (1 + sqrt 2)/2 * alpha."""
    return AngleTriple(alpha, (1.0 + SQRT2) / 2.0 * alpha, alpha)


def special_case_poles(p_beta: complex) -> tuple[complex, complex]:
    """Closed-form companion poles ((1-2 sqrt2) p, (sqrt2 - 1) p) at the special angles.

    This scaled triple satisfies g(0) = 0 with g(z) proportional to
    z (z - 2 p_beta): its second simple zero sits at 2 p_beta, so it is the
    zeros-at-{0,1} configuration seen through the coordinate scaling
    z -> z / (2 p_beta).  It coincides with
    :func:`solve_pole_positions` (minus branch) exactly at p_beta = 1/2.
    """
    p = complex(p_beta)
    for bad in (0.0, 1.0, 1.0 / SQRT2):
        if abs(p - bad) <= COLLISION_TOL:
            raise ExcludedPoint(f"p_beta = {p} sits on the excluded point {bad}")
    return (1.0 - 2.0 * SQRT2) * p, (SQRT2 - 1.0) * p


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


def _discriminant(angles: AngleTriple, p_beta: complex) -> complex:
    a, b, c = derive_pole_quadratic(angles, p_beta)
    return b * b - 4.0 * a * c


def _continued_sqrt_discriminant(angles: AngleTriple, p_beta: complex) -> complex:
    """Square root of the discriminant, continued from the basepoint P_beta = 0.

    At the basepoint the discriminant is (beta (alpha + gamma))^2 > 0 and the
    branch is anchored at the positive root.  The value at p_beta follows the
    segment t |-> t * p_beta, with small fixed-side semicircular detours in t
    around any discriminant zero that sits (numerically) on the segment, so
    the branch label is deterministic even across the zero set.
    """
    al, be, ga = angles.alpha, angles.beta, angles.gamma

    def disc_of_t(t: complex) -> complex:
        return _discriminant(angles, t * p_beta)

    # discriminant restricted to the segment is quadratic in t: interpolate it
    d0 = disc_of_t(0.0)
    dh = disc_of_t(0.5)
    d1 = disc_of_t(1.0)
    qa = 2.0 * d1 + 2.0 * d0 - 4.0 * dh
    qb = d1 - d0 - qa
    qc = d0

    # waypoints along [0, 1], detouring above any near-segment zero of disc
    detour = 0.05
    obstacles = []
    if abs(qa) > 1e-14 * max(abs(qb), abs(qc), 1e-300):
        s = cmath.sqrt(qb * qb - 4.0 * qa * qc)
        for root in ((-qb + s) / (2.0 * qa), (-qb - s) / (2.0 * qa)):
            if abs(root.imag) < detour and -detour < root.real < 1.0 + detour:
                obstacles.append(root.real)
    elif abs(qb) > 1e-14 * max(abs(qc), 1e-300):
        root = -qc / qb
        if abs(root.imag) < detour and -detour < root.real < 1.0 + detour:
            obstacles.append(root.real)

    waypoints: list[complex] = []
    base = 0.0
    for obstacle in sorted(obstacles):
        lo = max(0.0, obstacle - detour)
        hi = min(1.0, obstacle + detour)
        for k in range(24):
            waypoints.append(base + (lo - base) * k / 24.0)
        for k in range(25):
            theta = math.pi * (1.0 - k / 24.0)
            waypoints.append(complex(obstacle + detour * math.cos(theta),
                                     detour * math.sin(theta)))
        base = hi
    for k in range(49):
        waypoints.append(base + (1.0 - base) * k / 48.0)
    waypoints.append(1.0)

    s_prev = complex(be * (al + ga), 0.0)
    t_prev = 0.0 + 0.0j
    for t_next in waypoints:
        if t_next == t_prev:
            continue
        stack = [(t_prev, t_next)]
        depth = 0
        while stack:
            lo_t, hi_t = stack.pop()
            cand = cmath.sqrt(disc_of_t(hi_t))
            if abs(cand - s_prev) > abs(cand + s_prev):
                cand = -cand
            # refine if the root rotated too far to trust the sign match
            if abs(cand - s_prev) > 0.5 * (abs(cand) + abs(s_prev)) and depth < 40:
                mid = 0.5 * (lo_t + hi_t)
                stack.append((mid, hi_t))
                stack.append((lo_t, mid))
                depth += 1
                continue
            s_prev = cand
        t_prev = t_next
    return s_prev


def solve_pole_positions(angles: AngleTriple, p_beta: complex,
                         branch: Branch = Branch.MINUS) -> tuple[complex, complex]:
    """Solve g(0) = g(1) = 0 for (P_alpha, P_gamma) at the given P_beta.

    P_gamma is a root of the interpolated quadratic, picked by ``branch``
    with the continued-square-root convention of
    :func:`_continued_sqrt_discriminant` (so at the special angles the minus
    branch lands on the (sqrt2 - 1)/2 root at p_beta = 1/2); P_alpha then
    follows from the elimination relation

        P_alpha = (alpha + beta) P_beta P_gamma / (beta P_gamma - gamma P_beta).
    """
    p_beta = complex(p_beta)
    if abs(p_beta) <= COLLISION_TOL or abs(p_beta - 1.0) <= COLLISION_TOL:
        raise CollidingPoles(f"p_beta = {p_beta} collides with a prescribed zero")
    al, be, ga = angles.alpha, angles.beta, angles.gamma

    a, b, c = derive_pole_quadratic(angles, p_beta)
    scale = max(abs(a), abs(b), abs(c))
    if abs(a) <= 1e-12 * scale:
        raise DegenerateQuadratic(f"leading coefficient {a} is negligible against {scale}")
    disc = b * b - 4.0 * a * c
    if abs(disc) <= 1e-12 * (abs(b) ** 2 + 4.0 * abs(a) * abs(c)):
        raise DoubleRoot(f"discriminant {disc} is numerically zero")

    s = _continued_sqrt_discriminant(angles, p_beta)
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
