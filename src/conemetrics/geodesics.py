"""Geodesic lengths between marked points and the football decomposition.

Geodesics of a pulled-back sphere metric are (locally) preimages of great
circles under the developing map F.  When a great circle passes through
the poles of the round sphere - equivalently, when one endpoint's
developing image is 0 or infinity - its preimage is the curve on which
arg F is constant and the length collapses to the closed form

    L(a, b) = 2 | arctan |F(b)| - arctan |F(a)| |.

The 0-to-1 side of the three-football family is closed-form as well: F(0),
F(1) and infinity span a spherical triangle whose angle at infinity is the
developing phase of the path class, so the side follows from the law of
cosines.  Numerical work is left to deciding which path classes are
realized, and to the radial traces drawn by ``plot`` and checked by
``verify``.  A class is realized when its developed arc lifts back to the
chart without meeting a cone; the lift solves log F(z) = log w(s) by Newton
continuation along the arc, with the branch of log F carried step by step.
The zero at 0 is a cone of angle 4 pi, so classes are launched from four
points around it, on both of its sheets.  The radial traces integrate
dz/dtau = 1/f(z) with scipy's DOP853.  Cone points are honest metric points
but the flow degenerates there, so traces launch from small chart offsets;
the missing cone-approach stubs are the closed-form distances to the vertex
(``metric.vertex_distance``) and are added back.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DegenerateTriangle, EndpointNotReached, EvalAtPole, TraceDiverged
from .families import ThreeFootballParams, three_football_metric
from .forms import (
    INFINITY,
    POLE_GUARD,
    CharacterForm,
    coefficient_derivative_at,
    finite_zeros,
)
from .metric import MetricParams, density_at, developing_modulus, vertex_distance

#: chart offset from which paths launch out of a cone point
LAUNCH_OFFSET = 1e-4

#: launch points of the 0-1 side, on both sheets of the 4 pi cone at 0
LAUNCH_POINTS = (complex(LAUNCH_OFFSET, 0.0), complex(-LAUNCH_OFFSET, 0.0),
                 complex(0.0, LAUNCH_OFFSET), complex(0.0, -LAUNCH_OFFSET))

#: chart radius around the far endpoint at which a radial trace stops and
#: hands over to the analytic cone stub (also bounds the endpoint defect)
ARRIVAL_RADIUS = 5e-7

#: chart radius of the ball around 1 that a lifted 0-1 arc must enter
ARC_ARRIVAL_RADIUS = 1e-2

#: the arc lift gives up below this step in s, or after this many steps
_ARC_MIN_STEP = 1e-14
_ARC_MAX_STEPS = 20_000

_ULP = sys.float_info.epsilon


@dataclass
class GeodesicPath:
    """A sampled geodesic with its accumulated metric length.

    ``length`` is the full metric length between the requested endpoints,
    including the two cone-approach stubs recorded in ``stub_lengths``;
    ``path_length`` over ``samples`` recovers ``length - sum(stub_lengths)``
    up to quadrature error.  ``endpoint_defect`` is the chart distance from
    the last sample to the requested target (measured in the w = 1/z chart
    when the target is INFINITY).
    """

    samples: list[complex]
    length: float
    endpoint_defect: float
    stub_lengths: tuple[float, float] = (0.0, 0.0)

    def to_json(self) -> str:
        return json.dumps({
            "samples": [[z.real, z.imag] for z in self.samples],
            "length": self.length,
            "endpoint_defect": self.endpoint_defect,
        })


@dataclass(frozen=True)
class TriangleReport:
    """Football-decomposition data: two radial legs, the 0-1 side, the apex angle."""

    ell1: float
    ell2: float
    L01: float
    theta: float

    def to_json(self) -> str:
        return json.dumps({
            "ell1": self.ell1,
            "ell2": self.ell2,
            "L01": self.L01,
            "theta": self.theta,
        })


# ---------------------------------------------------------------------------
# closed-form radial lengths

def radial_length(params: MetricParams, a, b) -> float:
    """2 |arctan |F(b)| - arctan |F(a)||, with arctan(inf) = pi/2.

    Valid whenever the geodesic between a and b develops onto a straight
    line through the origin, i.e. when one of the two developing images is
    0 or infinity; the caller vouches for that.
    """
    ma = developing_modulus(params, a)
    mb = developing_modulus(params, b)
    return 2.0 * abs(math.atan(mb) - math.atan(ma))


def three_football_lengths(params: MetricParams) -> tuple[float, float]:
    """The two radial legs (L(1, infinity), L(0, infinity))."""
    ell1 = math.pi - 2.0 * math.atan(developing_modulus(params, 1.0))
    ell2 = math.pi - 2.0 * math.atan(developing_modulus(params, 0.0))
    return ell1, ell2


# ---------------------------------------------------------------------------
# polyline quadrature

def path_length(params: MetricParams, samples) -> float:
    """Composite per-segment midpoint quadrature of sqrt(density) along a polyline."""
    pts = [complex(z) for z in samples]
    if len(pts) < 2:
        return 0.0
    total = 0.0
    for z0, z1 in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (z0 + z1)
        total += math.sqrt(density_at(params, mid)) * abs(z1 - z0)
    return total


# ---------------------------------------------------------------------------
# radial preimage tracing

def _coefficient_and_potential(form: CharacterForm, z: complex, with_potential: bool) -> tuple[complex, float]:
    """f(z) and, when asked, the potential at z, in one pass over the poles.

    The scalar path of the ODE right-hand sides: z is not revalidated, and
    the potential is 0.0 unless ``with_potential``.  Raises EvalAtPole
    where ``not |z - p| > POLE_GUARD``, which also catches a nan z.
    """
    f = 0j
    potential = 0.0
    for p, r in zip(form.positions, form.residues):
        d = z - p
        dist = abs(d)
        if not dist > POLE_GUARD:
            raise EvalAtPole(f"evaluation at {z} is within {dist:.2e} of a pole")
        f += r / d
        if with_potential:
            potential += 2.0 * r * math.log(dist)
    return f, potential


def launch_directions(params: MetricParams, a, increasing: bool = False) -> tuple[complex, complex]:
    """The two chart directions in which radial curves leave a simple zero.

    At a simple zero the developing image satisfies
    F(a + t u) ~ F(a) (1 + f'(a) u^2 t^2 / 2), so |F| decreases along the
    two directions with u^2 f'(a) < 0 and increases along the perpendicular
    pair; ``increasing`` selects which pair is returned.
    """
    a = complex(a)
    fp = coefficient_derivative_at(params.form, a)
    ang = cmath.phase(fp)
    u = cmath.exp(1j * (-ang / 2.0)) if increasing else cmath.exp(1j * ((math.pi - ang) / 2.0))
    return u, -u


def _default_launch(params: MetricParams, a, b, increasing: bool) -> complex:
    cands = launch_directions(params, a, increasing)
    if b is INFINITY:
        return max(cands, key=lambda u: (u.real, u.imag))
    hint = complex(b) - complex(a)
    return max(cands, key=lambda u: (u * hint.conjugate()).real)


def trace_radial_preimage(params: MetricParams, a, b, n: int = 400,
                          launch_dir: complex | None = None,
                          clip_radius: float | None = None) -> GeodesicPath:
    """Trace the radial geodesic from zero ``a`` toward pole ``b`` (or INFINITY).

    The preimage of the developing ray through F(a) obeys dz/dtau = 1/f(z)
    with tau = log |F|, so the image modulus is stepped geometrically.  The
    metric length is integrated alongside, as a third state with
    d(length)/dtau = lambda |dz/dtau| = 2 sqrt(t) / (1 + t), t = e^{-|s|}:
    the density's |f|^2 cancels against |1/f|^2, so it stays a quadrature
    along the traced curve.  The samples follow ``n`` tau-uniform steps,
    bisected wherever a chord would exceed four mean spacings (the declared
    consecutive-distance bound).
    Tracing starts at chart offset ``LAUNCH_OFFSET`` from ``a`` and stops at
    ``ARRIVAL_RADIUS`` from ``b`` (or once ``|z| = clip_radius``, if given,
    for plots running off to infinity).  Both cone stubs are closed-form
    vertex distances (:func:`~conemetrics.metric.vertex_distance`), included
    in ``length``.
    """
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    a = complex(a)
    form = params.form

    if b is INFINITY:
        # |F| ~ |z|^(sum of residues) at infinity
        total = sum(p.residue for p in form.poles)
        increasing = total > 0.0
        if total == 0.0:
            raise TraceDiverged("|F| has a finite limit at infinity; no radial target there")
    else:
        b = complex(b)
        res_b = next(
            (p.residue for p in form.poles if abs(p.position - b) <= 1e-9), None)
        if res_b is None:
            raise TraceDiverged(f"target {b} is not a pole of the form")
        increasing = res_b < 0.0

    u_hat = _default_launch(params, a, b, increasing) if launch_dir is None \
        else complex(launch_dir) / abs(complex(launch_dir))
    z_start = a + LAUNCH_OFFSET * u_hat
    tau0 = math.log(developing_modulus(params, z_start))

    def rhs(tau, y):
        f, potential = _coefficient_and_potential(form, complex(y[0], y[1]), True)
        v = 1.0 / f
        # lambda |v| = sqrt(bell |f|^2) / |f| with bell = 4 t / (1 + t)^2
        t = math.exp(-abs(potential + params.c_log))
        return [v.real, v.imag, 2.0 * math.sqrt(t) / (1.0 + t)]

    span = 200.0
    direction = 1.0 if increasing else -1.0

    def arrival(tau, y):
        z = complex(y[0], y[1])
        if b is INFINITY:
            limit = clip_radius if clip_radius is not None else 2.0e6
            return limit - abs(z)
        return abs(z - b) - ARRIVAL_RADIUS

    arrival.terminal = True

    def escaped(tau, y):
        if b is INFINITY:
            return 1.0
        return 1.0e3 - math.hypot(y[0], y[1])

    escaped.terminal = True

    def hit_other_pole(tau, y):
        z = complex(y[0], y[1])
        dists = [abs(z - p.position) for p in form.poles
                 if b is INFINITY or abs(p.position - b) > 1e-9]
        return (min(dists) if dists else 1.0) - 10.0 * 1e-12

    hit_other_pole.terminal = True

    try:
        sol = solve_ivp(rhs, (tau0, tau0 + direction * span),
                        [z_start.real, z_start.imag, 0.0],
                        method="DOP853", dense_output=True,
                        events=[arrival, escaped, hit_other_pole],
                        rtol=1e-11, atol=1e-13)
    except EvalAtPole as exc:
        raise TraceDiverged(f"trace stepped onto a pole: {exc}") from exc
    if not sol.success:
        raise TraceDiverged(f"radial trace integrator failed: {sol.message}")
    if len(sol.t_events[1]) or len(sol.t_events[2]):
        raise TraceDiverged("radial trace left the admissible region")
    if not len(sol.t_events[0]):
        raise EndpointNotReached(f"trace from {a} never reached {b}")

    tau_end = sol.t_events[0][0]
    taus = np.linspace(tau0, tau_end, n + 1)
    states = sol.sol(taus)
    samples = [complex(x, y) for x, y in zip(states[0], states[1])]

    # the modulus grid crowds samples near the far cone; where the curve
    # sprints through the chart, bisect the grid until every chord stays
    # under four mean spacings of the nominal grid
    chord_total = sum(abs(b - a) for a, b in zip(samples[:-1], samples[1:]))
    bound = 4.0 * chord_total / n
    refined_t = [taus[0]]
    refined_z = [samples[0]]
    for t1, z1_s in zip(taus[1:], samples[1:]):
        stack = [(refined_t[-1], refined_z[-1], t1, z1_s)]
        while stack:
            ta, za, tb, zb = stack.pop()
            if abs(zb - za) <= bound or abs(tb - ta) < 1e-12:
                refined_t.append(tb)
                refined_z.append(zb)
                continue
            tm = 0.5 * (ta + tb)
            sm = sol.sol(tm)
            zm = complex(sm[0], sm[1])
            stack.append((tm, zm, tb, zb))
            stack.append((ta, za, tm, zm))
    samples = refined_z

    # tau may run downward; the arc-length state then accumulates negatively
    arc = abs(float(sol.sol(tau_end)[2]))
    z_end = samples[-1]

    stub_a = float(vertex_distance(params, a, z_start))
    if b is INFINITY and clip_radius is not None:
        stub_b = 0.0  # a clipped trace stops short of infinity on purpose
    else:
        stub_b = float(vertex_distance(params, b, z_end))
    defect = 1.0 / abs(z_end) if b is INFINITY else abs(z_end - b)

    return GeodesicPath(samples=samples,
                        length=stub_a + arc + stub_b,
                        endpoint_defect=defect,
                        stub_lengths=(stub_a, stub_b))


# ---------------------------------------------------------------------------
# preimages of developed great-circle arcs

def _lift_to_sphere(w: complex) -> tuple[float, float, float]:
    """Inverse stereographic projection onto the unit sphere (0 -> south pole)."""
    d = 1.0 + w.real * w.real + w.imag * w.imag
    return 2.0 * w.real / d, 2.0 * w.imag / d, (d - 2.0) / d


def _arc_preimage(params: MetricParams, z0: complex, phi: float,
                  mod_target: float, stop_center: complex, stop_radius: float):
    """Lift the great-circle arc from F(z0) to mod_target e^{i phi} back to the chart.

    The starting branch is fixed by taking F(z0) positive real; the arc w(s),
    s in [0, 1], is the minor great circle between the two developed images.
    Its preimage solves Q(z) = log w(s) with Q(z) = sigma log F(z), which is
    continued by Newton steps: Q is carried from node to node as
    Q(z') = Q(z) + sigma sum_k r_k log((z' - p_k) / (z - p_k)), starting from
    the real Q(z0) = log|F(z0)|, and the target by the increments
    log(w(s') / w(s)).  Each step predicts z' = z + (log w(s') - Q(z)) / (sigma f(z)),
    accepts the prediction only when it moves z by at most a quarter of the
    chart distance to the nearest pole or finite zero, and then corrects it
    with at most four Newton steps; otherwise ds is halved.  When
    |F(z0)| > 1 the arc of 1/F is lifted instead (sigma = -1, phase -phi):
    w -> 1/w is a rotation of the sphere, so it is the same curve, while near
    infinity the projection factor 1 - w_z would cancel most of its digits.

    Returns ``(s_end, lift)`` once z enters the ``stop_radius`` ball around
    ``stop_center``: ``s_end`` is the arc parameter at the ball's boundary,
    and ``lift`` maps an array of s in [0, s_end] to the chart coordinates
    ``(xs, ys)``, each found by Newton from the nearest step node at or below
    it.  Returns None when the arc is degenerate or runs over a projection
    pole, or when its preimage comes within 1e-9 of a pole, leaves
    ``|z| <= 1e3``, stalls (``ds < 1e-14``, or 20 000 steps), or reaches
    s = 1 outside the ball.
    """
    form = params.form
    positions, residues = form.positions, form.residues
    mod_start = developing_modulus(params, z0)
    sign = 1.0
    if mod_start > 1.0:
        mod_start, mod_target, phi, sign = 1.0 / mod_start, 1.0 / mod_target, -phi, -1.0
    ax, ay, az = a = _lift_to_sphere(complex(mod_start, 0.0))
    bx, by, bz = b = _lift_to_sphere(mod_target * cmath.exp(1j * phi))
    # the chord keeps every digit of the tiny arcs that acos would lose
    omega = 2.0 * math.asin(min(1.0, 0.5 * math.dist(a, b)))
    if omega < 1e-12 or omega > math.pi - 1e-9:
        return None
    sin_omega = math.sin(omega)
    signed = tuple(sign * r for r in residues)
    marks = positions + tuple(q for q, _ in finite_zeros(form))

    def developed(s: float) -> complex | None:
        """w(s) on the arc, or None at a projection pole."""
        ca = math.sin((1.0 - s) * omega) / sin_omega
        cb = math.sin(s * omega) / sin_omega
        horizontal = complex(ca * ax + cb * bx, ca * ay + cb * by)
        vertical = 1.0 - (ca * az + cb * bz)
        if abs(horizontal) < 1e-14 or abs(vertical) < 1e-14:
            return None
        return horizontal / vertical

    def correct(z: complex, q: complex, z_new: complex, target: complex):
        """Newton from the guess z_new toward Q = target, Q carried from (z, q).

        Returns (z', Q(z'), sigma f(z')), or None if four corrections do not
        bring the residual down to a few ulp: of max(1, |target|), and of
        |z'| sum_k |r_k / (z' - p_k)|, the digits log(z' - p_k) loses next to
        a pole.
        """
        for attempt in range(5):
            f = 0j
            spread = 0.0
            q_new = q
            for p, r in zip(positions, signed):
                d = z_new - p
                if d == 0.0:
                    return None
                f += r / d
                spread += abs(r / d)
                q_new += r * cmath.log(d / (z - p))
            residual = q_new - target
            if abs(residual) <= 4.0 * _ULP * (max(1.0, abs(target)) + abs(z_new) * spread):
                return z_new, q_new, f
            if attempt == 4 or f == 0.0:
                return None
            z_new -= residual / f

    s, z, q, w = 0.0, z0, complex(math.log(mod_start), 0.0), developed(0.0)
    if w is None:
        return None
    target = q
    f, _ = _coefficient_and_potential(form, z0, False)
    f *= sign
    nodes = [(s, z, q, target, w, f)]
    reach = 0.25 * min(abs(z - m) for m in marks)
    ds = 1.0 / 64.0
    for _ in range(_ARC_MAX_STEPS):
        if ds < _ARC_MIN_STEP:
            return None
        s_new = min(1.0, s + ds)
        w_new = developed(s_new)
        if w_new is None:
            return None
        target_new = target + cmath.log(w_new / w)
        guess = (target_new - q) / f
        if abs(guess) > reach:
            ds *= 0.5
            continue
        step = correct(z, q, z + guess, target_new)
        # a correction that moved z by over half the distance to the nearest
        # pole or zero may have changed branch of the log, or sheet at the zero
        if step is None or abs(step[0] - z) > 2.0 * reach:
            ds *= 0.5
            continue
        z_new, q_new, f_new = step
        if min(abs(z_new - p) for p in positions) < 1e-9 or abs(z_new) > 1e3:
            return None
        if abs(z_new - stop_center) <= stop_radius:
            s_end = _arrival(nodes[-1], s_new, developed, correct, stop_center, stop_radius)
            return s_end, _node_lift(nodes, signed, positions, omega, sin_omega, a, b)
        if s_new == 1.0:
            return None
        moved = abs(z_new - z)
        reach = 0.25 * min(abs(z_new - m) for m in marks)
        # aim the next prediction at 80% of the distance it may move
        ds *= min(2.0, 0.8 * reach / moved) if moved else 2.0
        s, z, q, target, w, f = s_new, z_new, q_new, target_new, w_new, f_new
        nodes.append((s, z, q, target, w, f))
    return None


def _arrival(node, s_out: float, developed, correct, center: complex, radius: float) -> float:
    """The s in (node s, s_out] at which the lift enters the ``radius`` ball.

    Illinois regula falsi on the signed gap |z(s) - center| - radius, each
    z(s) found by Newton from ``node``, the last node outside the ball.
    """
    s0, z0, q0, t0, w0, f0 = node

    def gap_at(s: float) -> float:
        target = t0 + cmath.log(developed(s) / w0)
        guess = z0 + (target - q0) / f0
        step = correct(z0, q0, guess, target)
        return abs((guess if step is None else step[0]) - center) - radius

    lo, g_lo = s0, abs(z0 - center) - radius
    hi, g_hi = s_out, gap_at(s_out)
    side = 0
    for _ in range(60):
        s = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < s < hi:
            break
        g = gap_at(s)
        if abs(g) <= 4.0 * _ULP:
            return s
        if g > 0.0:
            lo, g_lo = s, g
            g_hi *= 0.5 if side == -1 else 1.0
            side = -1
        else:
            hi, g_hi = s, g
            g_lo *= 0.5 if side == 1 else 1.0
            side = 1
    return hi


def _node_lift(nodes, signed, positions, omega, sin_omega, a, b):
    """Vectorised lift of arc parameters from the continuation's nodes."""
    node_s = np.array([n[0] for n in nodes])
    node_z, node_q, node_t, node_w, node_f = (
        np.array([n[i] for n in nodes], dtype=complex) for i in range(1, 6))
    ax, ay, az = a
    bx, by, bz = b

    def lift(s):
        s = np.asarray(s, dtype=float)
        k = np.clip(np.searchsorted(node_s, s, side="right") - 1, 0, len(nodes) - 1)
        ca = np.sin((1.0 - s) * omega) / sin_omega
        cb = np.sin(s * omega) / sin_omega
        w = (ca * ax + cb * bx + 1j * (ca * ay + cb * by)) / (1.0 - (ca * az + cb * bz))
        target = node_t[k] + np.log(w / node_w[k])
        zk, qk = node_z[k], node_q[k]
        z = zk + (target - qk) / node_f[k]
        for _ in range(6):
            f = np.zeros_like(z)
            q = qk.copy()
            for p, r in zip(positions, signed):
                f += r / (z - p)
                q += r * np.log((z - p) / (zk - p))
            z = z - (q - target) / f
        return z.real, z.imag

    return lift


# ---------------------------------------------------------------------------
# spherical trigonometry and the decomposition report

def spherical_angle(a_opposite: float, b: float, c: float) -> float:
    """Angle opposite side ``a`` in a spherical triangle with sides (a, b, c).

    Spherical law of cosines, with the arccos argument clamped when it
    overshoots [-1, 1] by at most 1e-12.
    """
    tol = 1e-9
    for name, v in (("a", a_opposite), ("b", b), ("c", c)):
        if not (0.0 < v < math.pi):
            raise DegenerateTriangle(f"side {name} = {v} outside (0, pi)")
    if (a_opposite > b + c + tol or b > a_opposite + c + tol
            or c > a_opposite + b + tol or a_opposite + b + c > 2.0 * math.pi + tol):
        raise DegenerateTriangle(
            f"sides ({a_opposite}, {b}, {c}) violate the spherical triangle inequality")
    sb, sc = math.sin(b), math.sin(c)
    if sb * sc < 1e-12:
        raise DegenerateTriangle("sin(b) sin(c) too small for a stable angle")
    arg = (math.cos(a_opposite) - math.cos(b) * math.cos(c)) / (sb * sc)
    if abs(arg) > 1.0:
        if abs(arg) > 1.0 + 1e-12:
            raise DegenerateTriangle(f"law-of-cosines argument {arg} outside [-1, 1]")
        arg = math.copysign(1.0, arg)
    return math.acos(arg)


def _l01_candidates(params: MetricParams) -> list[tuple[float, float, complex]]:
    """Every 0-1 path class from every launch point, as (L01, phi, z0), shortest first.

    The sort is stable, so equal sides keep the order of ``LAUNCH_POINTS``.
    """
    ell1, ell2 = three_football_lengths(params)
    poles = params.form.poles

    def hav(x: float) -> float:
        return math.sin(0.5 * x) ** 2

    def side(phi: float) -> float:
        h = hav(ell1 - ell2) + math.sin(ell1) * math.sin(ell2) * hav(phi)
        return 2.0 * math.asin(math.sqrt(min(1.0, h)))

    out = []
    for z0 in LAUNCH_POINTS:
        phi_seg = math.fsum(p.residue * cmath.phase((1.0 - p.position) / (z0 - p.position))
                            for p in poles)
        phases: dict[float, float] = {}  # one entry per distinct phase mod 2 pi
        for turns in itertools.product((-1, 0, 1), repeat=len(poles)):
            phi = math.remainder(
                phi_seg + 2.0 * math.pi * math.fsum(n * p.residue for n, p in zip(turns, poles)),
                2.0 * math.pi)
            phases.setdefault(round(phi, 12), phi)
        out += [(side(phi), phi, z0) for phi in phases.values()]
    out.sort(key=lambda cand: cand[0])
    return out


def l01_side(params: MetricParams) -> tuple[float, float, complex]:
    """The 0-1 side ``L01``, its developing phase ``phi`` in [-pi, pi] and launch point.

    F(0), F(1) and infinity span a spherical triangle whose legs ell1, ell2
    meet at infinity at the angle |phi|, so ``L01`` follows from the law of
    cosines, taken in haversine form,

        hav L01 = hav(ell1 - ell2) + sin ell1 sin ell2 hav phi,

    because acos loses the digits of the tiny sides that occur.  The zero at
    0 is a cone of angle 4 pi, so the four launch points ``LAUNCH_POINTS``
    (chart offset ``LAUNCH_OFFSET`` along +-1 and +-i) lie on its two sheets
    and start different path classes.  A class from z0 to 1 develops with
    phase phi_seg + 2 pi sum_k n_k r_k, where
    phi_seg = sum_k r_k Arg((1 - p_k) / (z0 - p_k)) is the phase along the
    straight segment from z0 and n_k counts the turns around pole k.  The
    classes with every n_k in {-1, 0, 1}, from all four launch points, are
    tried shortest first; one is realized when its developed arc lifts from
    z0 into the ARC_ARRIVAL_RADIUS ball around 1 without meeting a cone
    (:func:`_arc_preimage`).  Returns ``(L01, phi, z0)`` of the first that
    lifts, and raises :class:`EndpointNotReached` when none does.
    """
    mod1 = developing_modulus(params, 1.0)
    for length, phi, z0 in _l01_candidates(params):
        if _arc_preimage(params, z0, phi, mod1, 1.0 + 0.0j, ARC_ARRIVAL_RADIUS) is not None:
            return length, phi, z0
    raise EndpointNotReached(
        f"no developed 0-1 arc lifts from the launch points {LAUNCH_POINTS} into the "
        f"{ARC_ARRIVAL_RADIUS:g} ball around 1")


def decomposition_report(params: ThreeFootballParams) -> TriangleReport:
    """Measure (ell1, ell2, L(0,1), theta) for a three-football configuration.

    The radial legs are 2 arctan of the inverse developing moduli at 1 and
    0; the 0-1 side comes from the law of cosines in the developing phase
    of the shortest realized path class (:func:`l01_side`), and theta, the
    angle at the vertex developing to infinity, is that phase's modulus.
    """
    mp = three_football_metric(params)
    ell1, ell2 = three_football_lengths(mp)
    l01, phi, _ = l01_side(mp)
    return TriangleReport(ell1=ell1, ell2=ell2, L01=l01, theta=abs(phi))
