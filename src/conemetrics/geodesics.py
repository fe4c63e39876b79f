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
points around it, on both of its sheets.  The radial traces solve
log F(z) = tau for real tau = log |F| the same way, by one continuation
core (:func:`_continue`), so that their length is closed-form too.  Cone
points are honest metric points but the continuation degenerates there, so
paths launch from small chart offsets; the missing cone-approach stubs are
the closed-form distances to the vertex (``metric.vertex_distance``) and are
added back.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EndpointNotReached, TraceDiverged
from .families import ThreeFootballParams, three_football_metric
from .forms import INFINITY, CharacterForm, coefficient_derivative_at, finite_zeros
from .metric import MetricParams, developing_modulus, vertex_distance

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

#: the continuation gives up below this step in its parameter, or after this many steps
_MIN_STEP = 1e-14
_MAX_STEPS = 20_000

_ULP = sys.float_info.epsilon


def __getattr__(name: str):
    # No program path calls scipy, so importing this module loads none of it.
    # The benchmark's tracer (perfbench/spans.py) still looks up
    # ``geodesics.solve_ivp`` by name; it gets scipy's on demand.  This lookup
    # goes with the benchmark change of ROADMAP item 1, which drops that span.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class GeodesicPath:
    """A sampled geodesic with its accumulated metric length.

    ``length`` is the full metric length between the requested endpoints,
    including the two cone-approach stubs recorded in ``stub_lengths``; the
    metric length of the polyline through ``samples`` is
    ``length - sum(stub_lengths)`` up to quadrature error.
    ``endpoint_defect`` is the chart distance from the last sample to the
    requested target (measured in the w = 1/z chart when the target is
    INFINITY).
    """

    samples: list[complex]
    length: float
    endpoint_defect: float
    stub_lengths: tuple[float, float] = (0.0, 0.0)


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
# Newton continuation of log F

class _Stopped(Exception):
    """The continuation stopped short of arrival; ``args`` is ``(reason, z)``.

    ``reason`` is "undefined" (the target has no value at the next step),
    "pole" (z came within the avoid radius of a pole), "escaped" (z left the
    escape radius), "stalled" (the step fell below ``_MIN_STEP``, or
    ``_MAX_STEPS`` steps were taken) or "span" (the parameter ran out).
    """


def _correct(positions, signed, z: complex, q: complex, z_new: complex, target: complex):
    """Newton from the guess z_new toward Q = target, Q carried from (z, q).

    Returns (z', Q(z'), Q'(z')), or None if four corrections do not bring the
    residual down to a few ulp: of max(1, |target|), and of
    |z'| sum_k |r_k / (z' - p_k)|, the digits log(z' - p_k) loses next to a
    pole.
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


def _continue(form: CharacterForm, sign: float, z0: complex, q0: complex, start, advance,
              ds: float | None, s_max: float, gap, avoid, avoid_radius: float, escape: float):
    """Follow the solution of Q(z) = target(s) from z0 at s = 0 by Newton continuation.

    Q = sign log F = sign (c/2 + sum_k r_k log(z - p_k)) is carried from node
    to node, Q(z') = Q(z) + sign sum_k r_k log((z' - p_k) / (z - p_k)),
    starting from ``q0 = Q(z0)``; the branch is the one continued along the
    steps.  A node is ``(s, z, Q(z), target, aux, Q'(z))``, ``start`` is the
    first node's ``(target, aux)``, and ``advance(s, node)`` gives
    ``(target(s), aux)`` from a node, or None where the target is undefined.
    Each step predicts z' = z + (target(s') - Q(z)) / Q'(z) and accepts the
    prediction only when it moves z by at most a quarter of the chart
    distance d(z) to the nearest pole or finite zero; then :func:`_correct`
    refines it.  A corrected point more than d/2 from z may have changed
    branch of the log, or sheet at a zero, and is refused.  On a refusal ds
    is halved; after an accepted step ds is scaled toward a prediction of 80%
    of the allowed move, at most doubled.  ``ds=None`` starts a unit-speed
    target (|dtarget/ds| = 1) at that 80% step.

    Returns ``(s_end, nodes)`` once ``gap(z) <= 0``, with s_end where the gap
    vanishes (:func:`_arrival`).  Raises :class:`_Stopped` when z comes within
    ``avoid_radius`` of a position in ``avoid``, leaves ``|z| <= escape``, or
    stalls, or when s reaches ``s_max`` first.
    """
    positions = form.positions
    signed = tuple(sign * r for r in form.residues)
    marks = positions + tuple(q for q, _ in finite_zeros(form))
    f = sum(r / (z0 - p) for p, r in zip(positions, signed))
    s, z, q = 0.0, z0, q0
    node = (s, z, q, *start, f)
    nodes = [node]
    reach = 0.25 * min(abs(z - m) for m in marks)
    if ds is None:
        ds = 0.8 * reach * abs(f)
    for _ in range(_MAX_STEPS):
        if ds < _MIN_STEP:
            break
        s_new = min(s_max, s + ds)
        step = advance(s_new, node)
        if step is None:
            raise _Stopped("undefined", z)
        target_new, aux_new = step
        guess = (target_new - q) / f
        if abs(guess) > reach:
            ds *= 0.5
            continue
        step = _correct(positions, signed, z, q, z + guess, target_new)
        if step is None or abs(step[0] - z) > 2.0 * reach:
            ds *= 0.5
            continue
        z_new, q_new, f_new = step
        if min((abs(z_new - p) for p in avoid), default=math.inf) < avoid_radius:
            raise _Stopped("pole", z_new)
        if abs(z_new) > escape:
            raise _Stopped("escaped", z_new)
        if gap(z_new) <= 0.0:
            return _arrival(positions, signed, node, s_new, advance, gap), nodes
        if s_new == s_max:
            raise _Stopped("span", z_new)
        moved = abs(z_new - z)
        reach = 0.25 * min(abs(z_new - m) for m in marks)
        # aim the next prediction at 80% of the distance it may move
        ds *= min(2.0, 0.8 * reach / moved) if moved else 2.0
        s, z, q, f = s_new, z_new, q_new, f_new
        node = (s, z, q, target_new, aux_new, f)
        nodes.append(node)
    raise _Stopped("stalled", z)


def _arrival(positions, signed, node, s_out: float, advance, gap) -> float:
    """The s in (node s, s_out] at which the continuation's gap reaches 0.

    Illinois regula falsi on ``gap(z(s))``, each z(s) found by Newton from
    ``node``, the last node before arrival.
    """
    s0, z0, q0, _, _, f0 = node

    def gap_at(s: float) -> float:
        target, _ = advance(s, node)
        guess = z0 + (target - q0) / f0
        step = _correct(positions, signed, z0, q0, guess, target)
        return gap(guess if step is None else step[0])

    lo, g_lo = s0, gap(z0)
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


def _node_lift(nodes, positions, signed, targets):
    """Vectorised lift of parameters s from the continuation's nodes.

    ``targets(s, k)`` is the target at each s, given the index k of the
    nearest node at or below it; each z is found by Newton from node k.
    """
    node_s = np.array([n[0] for n in nodes])
    node_z, node_q, node_f = (np.array([n[i] for n in nodes], dtype=complex) for i in (1, 2, 5))

    def lift(s):
        s = np.asarray(s, dtype=float)
        k = np.clip(np.searchsorted(node_s, s, side="right") - 1, 0, len(nodes) - 1)
        target = targets(s, k)
        zk, qk = node_z[k], node_q[k]
        z = zk + (target - qk) / node_f[k]
        for _ in range(6):
            f = np.zeros_like(z)
            q = qk.copy()
            for p, r in zip(positions, signed):
                f += r / (z - p)
                q += r * np.log((z - p) / (zk - p))
            z = z - (q - target) / f
        return z

    return lift


# ---------------------------------------------------------------------------
# radial preimage tracing

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

    The preimage of the developing ray through F(a) is the curve on which
    arg F stays constant, parametrized by tau = log |F|.  It solves
    Q(z) = tau, Q = c/2 + sum_k r_k log(z - p_k), by Newton continuation in
    tau (:func:`_continue`), from the real Q(z_start) = log |F(z_start)|.
    Along it the metric length grows by lambda |dz/dtau| = sech tau: the
    density's |f|^2 cancels against |1/f|^2, so the length between the two
    ends is 2 |arctan e^tau_end - arctan e^tau_start| in closed form.  The
    samples are ``n + 1`` tau-uniform points, with every chord longer than
    four mean spacings bisected in tau (the declared consecutive-distance
    bound), each lifted from the continuation's nodes.
    Tracing starts at chart offset ``LAUNCH_OFFSET`` from ``a`` and stops at
    ``ARRIVAL_RADIUS`` from ``b`` (or once ``|z| = clip_radius``, if given,
    else 2e6, for INFINITY).  Both cone stubs are closed-form vertex
    distances (:func:`~conemetrics.metric.vertex_distance`), included in
    ``length``.  Raises :class:`TraceDiverged` when the trace comes within
    1e-11 of another pole, leaves ``|z| <= 1e3`` toward a finite pole, or
    stalls, and :class:`EndpointNotReached` when tau runs 200 without arrival.
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
        limit = clip_radius if clip_radius is not None else 2.0e6

        def gap(z: complex) -> float:
            return limit - abs(z)

        avoid, escape = form.positions, math.inf
    else:
        b = complex(b)
        res_b = next(
            (p.residue for p in form.poles if abs(p.position - b) <= 1e-9), None)
        if res_b is None:
            raise TraceDiverged(f"target {b} is not a pole of the form")
        increasing = res_b < 0.0

        def gap(z: complex) -> float:
            return abs(z - b) - ARRIVAL_RADIUS

        avoid = tuple(p for p in form.positions if abs(p - b) > 1e-9)
        escape = 1.0e3

    u_hat = _default_launch(params, a, b, increasing) if launch_dir is None \
        else complex(launch_dir) / abs(complex(launch_dir))
    z_start = a + LAUNCH_OFFSET * u_hat
    tau0 = math.log(developing_modulus(params, z_start))
    direction = 1.0 if increasing else -1.0

    def advance(s: float, node) -> tuple[complex, None]:
        return complex(tau0 + direction * s, 0.0), None

    q0 = complex(tau0, 0.0)
    try:
        s_end, nodes = _continue(form, 1.0, z_start, q0, (q0, None), advance, None, 200.0,
                                 gap, avoid, 1e-11, escape)
    except _Stopped as stop:
        reason, z = stop.args
        if reason == "pole":
            dist = min(abs(z - p) for p in avoid)
            raise TraceDiverged(f"trace stepped onto a pole: {z} is within {dist:.2e} of a pole")
        if reason == "span":
            raise EndpointNotReached(f"trace from {a} never reached {b}")
        if reason == "escaped":
            raise TraceDiverged("radial trace left the admissible region")
        raise TraceDiverged(f"radial trace stalled at {z}")

    lift = _node_lift(nodes, form.positions, form.residues,
                      lambda s, k: tau0 + direction * s)
    s = np.linspace(0.0, s_end, n + 1)
    z = lift(s)
    # the modulus grid crowds samples near the far cone; where the curve
    # sprints through the chart, bisect the grid level by level until every
    # chord stays under four mean spacings of the nominal grid
    bound = 4.0 * float(np.sum(np.abs(np.diff(z)))) / n
    while True:
        wide = np.flatnonzero((np.abs(np.diff(z)) > bound) & (np.diff(s) >= 1e-12))
        if not wide.size:
            break
        mid = 0.5 * (s[wide] + s[wide + 1])
        s = np.insert(s, wide + 1, mid)
        z = np.insert(z, wide + 1, lift(mid))
    samples = z.tolist()

    tau_end = tau0 + direction * s_end
    arc = 2.0 * abs(math.atan(math.exp(tau_end)) - math.atan(math.exp(tau0)))
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
    Its preimage solves Q(z) = log w(s) with Q(z) = sigma log F(z), continued
    by Newton steps (:func:`_continue`) from the real Q(z0) = log|F(z0)|; the
    target is carried by the increments log(w(s') / w(s)).  When
    |F(z0)| > 1 the arc of 1/F is lifted instead (sigma = -1, phase -phi):
    w -> 1/w is a rotation of the sphere, so it is the same curve, while near
    infinity the projection factor 1 - w_z would cancel most of its digits.

    Returns ``(s_end, lift)`` once z enters the ``stop_radius`` ball around
    ``stop_center``: ``s_end`` is the arc parameter at the ball's boundary,
    and ``lift`` maps an array of s in [0, s_end] to the chart points, each
    found by Newton from the nearest step node at or below it.  Returns None
    when the arc is degenerate or runs over a projection pole, or when its
    preimage comes within 1e-9 of a pole, leaves ``|z| <= 1e3``, stalls
    (``ds < 1e-14``, or 20 000 steps), or reaches s = 1 outside the ball.
    """
    form = params.form
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

    def developed(s: float) -> complex | None:
        """w(s) on the arc, or None at a projection pole."""
        ca = math.sin((1.0 - s) * omega) / sin_omega
        cb = math.sin(s * omega) / sin_omega
        horizontal = complex(ca * ax + cb * bx, ca * ay + cb * by)
        vertical = 1.0 - (ca * az + cb * bz)
        if abs(horizontal) < 1e-14 or abs(vertical) < 1e-14:
            return None
        return horizontal / vertical

    def advance(s: float, node):
        w = developed(s)
        return None if w is None else (node[3] + cmath.log(w / node[4]), w)

    w0 = developed(0.0)
    if w0 is None:
        return None
    q0 = complex(math.log(mod_start), 0.0)
    try:
        s_end, nodes = _continue(form, sign, z0, q0, (q0, w0), advance, 1.0 / 64.0, 1.0,
                                 lambda z: abs(z - stop_center) - stop_radius,
                                 form.positions, 1e-9, 1e3)
    except _Stopped:
        return None
    node_t, node_w = (np.array([n[i] for n in nodes], dtype=complex) for i in (3, 4))

    def targets(s, k):
        ca = np.sin((1.0 - s) * omega) / sin_omega
        cb = np.sin(s * omega) / sin_omega
        w = (ca * ax + cb * bx + 1j * (ca * ay + cb * by)) / (1.0 - (ca * az + cb * bz))
        return node_t[k] + np.log(w / node_w[k])

    signed = tuple(sign * r for r in form.residues)
    return s_end, _node_lift(nodes, form.positions, signed, targets)

# ---------------------------------------------------------------------------
# the decomposition report

def _l01_candidates(params: MetricParams) -> list[tuple[float, float, complex, float]]:
    """Every 0-1 path class from every launch point, shortest first.

    Each candidate is ``(L01, phi, z0, phi_lift)``: the side and the
    developing phase at the vertex 0, the launch point, and the phase from
    z0, which is the lift's target.  ``L01`` and ``phi`` are the same for a
    class from every launch point.  Within a class the launch points come in
    the order of the side that their own phase gives: the first has already
    turned toward F(1) around the cone, and is the likeliest to lift.
    """
    ell1, ell2 = three_football_lengths(params)
    poles = params.form.poles

    def hav(x: float) -> float:
        return math.sin(0.5 * x) ** 2

    def side(phi: float) -> float:
        h = hav(ell1 - ell2) + math.sin(ell1) * math.sin(ell2) * hav(phi)
        return 2.0 * math.asin(math.sqrt(min(1.0, h)))

    phi_seg = math.fsum(p.residue * cmath.phase((1.0 - p.position) / -p.position)
                        for p in poles)
    phases: dict[float, float] = {}  # one entry per distinct phase mod 2 pi
    for turns in itertools.product((-1, 0, 1), repeat=len(poles)):
        phi = math.remainder(
            phi_seg + 2.0 * math.pi * math.fsum(n * p.residue for n, p in zip(turns, poles)),
            2.0 * math.pi)
        phases.setdefault(round(phi, 12), phi)
    out = []
    for z0 in LAUNCH_POINTS:
        # arg F(z0) - arg F(0) along the segment from 0: the lift starts at z0
        step = math.fsum(p.residue * cmath.phase((z0 - p.position) / -p.position)
                         for p in poles)
        out += [(side(phi), phi, z0, phi - step) for phi in phases.values()]
    out.sort(key=lambda cand: (cand[0], side(cand[3])))
    return out


def l01_side(params: MetricParams) -> tuple[float, float, complex]:
    """The 0-1 side ``L01``, its developing phase ``phi`` in [-pi, pi] and launch point.

    F(0), F(1) and infinity span a spherical triangle whose legs ell1, ell2
    meet at infinity at the angle |phi|, so ``L01`` follows from the law of
    cosines, taken in haversine form,

        hav L01 = hav(ell1 - ell2) + sin ell1 sin ell2 hav phi,

    because acos loses the digits of the tiny sides that occur.  A class
    from the vertex 0 to 1 develops with phase phi_seg + 2 pi sum_k n_k r_k,
    where phi_seg = sum_k r_k Arg((1 - p_k) / -p_k) is the phase along the
    segment [0, 1] and n_k counts the turns around pole k.  The zero at 0 is
    a cone of angle 4 pi, so the four launch points ``LAUNCH_POINTS`` (chart
    offset ``LAUNCH_OFFSET`` along +-1 and +-i) lie on its two sheets and
    start different paths of each class.  The classes with every n_k in
    {-1, 0, 1}, from all four launch points, are tried shortest first; one is
    realized when its developed arc, with the phase taken from the launch
    point, lifts from there into the ARC_ARRIVAL_RADIUS ball around 1 without
    meeting a cone (:func:`_arc_preimage`).  Returns ``(L01, phi, z0)`` of
    the first that lifts, and raises :class:`EndpointNotReached` when none
    does.  ``L01`` and ``phi`` are taken at the vertex, so they do not depend
    on the sheet that realizes the class.
    """
    mod1 = developing_modulus(params, 1.0)
    for length, phi, z0, phi_lift in _l01_candidates(params):
        if _arc_preimage(params, z0, phi_lift, mod1, 1.0 + 0.0j, ARC_ARRIVAL_RADIUS) is not None:
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
