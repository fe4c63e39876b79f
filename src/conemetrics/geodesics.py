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

The continuation steps in two kinds of chart.  Between the marked points it
steps in z, each step at most a quarter of the distance to the nearest one.
Inside a disc around a finite marked point v (radius ``DISC_FRACTION`` of
the distance to the nearest other one) it steps in u = log(z - v).  At a
pole, log F = r_v u + h(z) with h analytic on the disc, so log F is nearly
linear in u; at a simple zero a, log(log F - log F(a)) is nearly 2u.  A
step in z moves at most a quarter of |z - v|, about ten steps per decade of
|z - v|; a step in u may move a quarter of log(d / |z - v|) or more, which
grows toward the cone, so a path that leaves a cone at ``LAUNCH_OFFSET`` or
ends ``ARRIVAL_RADIUS`` from one takes a few steps per decade there.  A
path ends in the first arrival ball it enters, of a marked point or infinity.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import EndpointNotReached, ModulusOutOfRange, NotASingularPoint, TraceDiverged
from .families import ThreeFootballParams, three_football_metric
from .forms import INFINITY, coefficient_derivative_at
from .metric import MetricParams, _vertex_distance, developing_modulus, vertex_distance

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

#: deepest dyadic level of a wide sample interval that is lifted in one call
BISECT_DEPTH_CAP = 6

#: radius of the disc around a finite marked point inside which the
#: continuation steps in the chart log(z - v), as a fraction of the distance
#: from v to the nearest other finite marked point
DISC_FRACTION = 1.0 / 3.0

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
    """A traced geodesic: its metric length at once, its chart samples on demand.

    ``length`` is the full metric length between the requested endpoints,
    including the two cone-approach stubs recorded in ``stub_lengths``; the
    metric length of the polyline through ``samples`` is
    ``length - sum(stub_lengths)`` up to quadrature error.
    ``endpoint_defect`` is the chart distance from the arrival point, the
    last sample, to the requested target (measured in the w = 1/z chart when
    the target is INFINITY).  These three are fields.  ``samples`` is built
    by the zero-argument ``sampler`` on its first read and kept, so a caller
    that reads only the length never pays for the sampling.
    """

    length: float
    endpoint_defect: float
    stub_lengths: tuple[float, float]
    sampler: Callable[[], list[complex]] = field(repr=False, compare=False)

    @cached_property
    def samples(self) -> list[complex]:
        return self.sampler()


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
# Newton continuation of log F, in the z chart and in log charts at the cones

class _Stopped(Exception):
    """The continuation stopped before it reached a mark; ``args`` is ``(reason, z)``:
    "undefined" (the target has no value at the next step), "stalled" (the step fell
    below ``_MIN_STEP``, or ``_MAX_STEPS`` steps were taken) or "span" (s ran out)."""


def _discs(marked):
    """The log-chart disc of every finite marked point, from the records ``marked``.

    Each disc is ``(v, k, others, radius)``: its centre v, the index k of the
    pole at v (-1 at a zero), the other finite marked points, and the radius
    ``DISC_FRACTION`` times the mark's clearance, the distance from v to the
    nearest of them.  With a fraction below one half the discs are disjoint.
    """
    finite = [m for m in marked if m.kind != "infinity"]
    return tuple((m.position, m.pole,
                  tuple(w.position for j, w in enumerate(finite) if j != i),
                  DISC_FRACTION * m.clearance)
                 for i, m in enumerate(finite))


class _Chart(NamedTuple):
    """The chart u = log(z - v) of the disc around a finite marked point v."""

    v: complex
    #: index of the pole at v, -1 at a zero
    vertex: int
    #: Q(v) at a zero, carried to v from where the path entered the disc; None at a pole
    qv: complex | None
    #: log(m - v) of the other finite marked points m, by increasing real part
    images: tuple[complex, ...]
    log_radius: float
    #: (r_k, v - p_k, whether p_k is v) for every pole
    poles: tuple[tuple[float, complex, bool], ...]


def _log_reach(images, u: complex) -> float:
    """A quarter of the u-distance from u to the nearest image log(m - v) + 2 pi i n.

    ``images`` are the log(m - v) of the other marked points, by increasing
    real part.  The reach is at least a quarter of log(d / |z - v|).
    """
    best = math.inf
    for w in images:
        across = w.real - u.real
        if across >= best:
            break
        best = min(best, math.hypot(across, math.remainder(w.imag - u.imag, 2.0 * math.pi)))
    return 0.25 * best


def _chart_at(discs, positions, signed, z: complex, q: complex, f: complex):
    """The chart of the point z, where Q = q and Q' = f: ``(chart, x, dQ/dx, reach)``.

    Inside the disc of a marked point v the chart is a :class:`_Chart`, with
    coordinate x = u = log(z - v) and the reach of :func:`_log_reach`; at a
    zero, Q(v) is carried to v from z.  Between the discs the chart is None,
    x = z, and the reach is a quarter of the distance to the nearest finite
    marked point.
    """
    nearest = math.inf
    for v, k, others, radius in discs:
        dist = abs(z - v)
        if 0.0 < dist < radius:
            qv = None
            if k < 0:
                qv = q + sum(r * cmath.log((v - p) / (z - p)) for p, r in zip(positions, signed))
            images = tuple(sorted((cmath.log(w - v) for w in others), key=lambda w: w.real))
            poles = tuple((r, v - p, j == k) for j, (p, r) in enumerate(zip(positions, signed)))
            u = cmath.log(z - v)
            chart = _Chart(v, k, qv, images, math.log(radius), poles)
            return chart, u, f * (z - v), _log_reach(images, u)
        nearest = min(nearest, dist)
    return None, z, f, 0.25 * nearest


def _predict(chart, q: complex, slope: complex, target: complex) -> complex:
    """The step in the chart's coordinate from a node (Q = q, dQ/dx = slope) toward target.

    Linear in Q in the z chart and at a pole, where dQ/du is about the
    residue; linear in log(Q - Q(a)) at a zero a, where that is about 2u.
    """
    if chart is None or chart.qv is None:
        return (target - q) / slope
    qv = chart.qv
    if target == qv or q == qv:
        return complex(math.inf)  # the vertex itself, which no step reaches
    return cmath.log((target - qv) / (q - qv)) * (q - qv) / slope


def _correct(positions, signed, chart, x: complex, q: complex, x_new: complex, target: complex):
    """Newton from the guess x_new toward Q = target, Q carried from the node (x, q).

    x is the coordinate of ``chart`` (:func:`_chart_at`).  Each z - p_k is
    formed as offset + e: in the log chart of a disc around v as
    (v - p_k) + e^u, so that no digit of the small offset is lost; between
    the discs as (-p_k) + z, which is z - p_k to the bit.  Then
    Q(z') = Q(z) + sum_k r_k log((z' - p_k) / (z - p_k)), except that at a
    pole v the term of v itself is r_v (u' - u), its branch explicit.  At a
    zero a the Newton step solves log(Q - Q(a)) = log(target - Q(a)).
    Returns (x', z', Q(z'), dQ/dx at x', min_k |z' - p_k|), or None if four
    corrections do not bring the residual down to a few ulp: of
    max(1, |target|), and of |z'| sum_k |r_k / (z' - p_k)|, the digits
    log(z' - p_k) loses next to a pole.
    """
    scale = max(1.0, abs(target))
    in_z = chart is None
    qv = None if in_z else chart.qv
    e = x if in_z else cmath.exp(x)
    poles = [(r, -p, False) for p, r in zip(positions, signed)] if in_z else chart.poles
    poles = [(r, offset, offset + e, at_vertex) for r, offset, at_vertex in poles]
    for attempt in range(5):
        try:
            e = x_new if in_z else cmath.exp(x_new)
        except OverflowError:
            return None
        z_new = e if in_z else chart.v + e
        f = 0j
        spread = 0.0
        nearest = math.inf
        q_new = q
        for r, offset, base, at_vertex in poles:
            d = offset + e
            if d == 0.0:
                return None
            dist = abs(d)
            if dist < nearest:
                nearest = dist
            term = r / d
            f += term
            spread += abs(term)
            q_new += r * (x_new - x) if at_vertex else r * cmath.log(d / base)
        slope = f if in_z else f * e
        residual = q_new - target
        if abs(residual) <= 4.0 * _ULP * (scale + abs(z_new) * spread):
            return x_new, z_new, q_new, slope, nearest
        if attempt == 4 or f == 0.0:
            return None
        if qv is None:
            x_new -= residual / slope
        else:
            g = q_new - qv
            if g == 0.0 or target == qv:
                return None
            x_new -= cmath.log(g / (target - qv)) * g / slope


def _continue(params: MetricParams, sign: float, z0: complex, q0: complex, start, advance,
              ds: float | None, s_max: float, target, radius: float):
    """Follow the solution of Q(z) = target(s) from z0 at s = 0 by Newton continuation.

    Q = sign log F = sign (c/2 + sum_k r_k log(z - p_k)) is carried from node
    to node, starting from ``q0 = Q(z0)``; the branch is the one continued
    along the steps.  Inside the disc of radius ``DISC_FRACTION`` d around a
    finite marked point v, d the distance from v to the nearest other one,
    the steps are taken in the chart u = log(z - v); between the discs, in
    z (:func:`_chart_at`).  Near a pole Q = r_v u + h(z), h analytic on the
    disc, so dQ/du is about r_v; near a simple zero a, log(Q - Q(a)) is
    about 2u + const.  So the reach in u grows toward v, where a step in z
    covers at most a quarter of |z - v|.

    A node is ``(s, z, Q(z), target, aux, dQ/dx, x, chart)``, x the chart
    coordinate of z; ``start`` is the first node's ``(target, aux)``, and
    ``advance(s, node)`` gives ``(target(s), aux)`` from a node, or None
    where the target is undefined.  Each step predicts x' from the
    linearization at the node (:func:`_predict`) and accepts the prediction
    only when it moves x by at most the chart's reach: a quarter of the
    distance to the nearest finite marked point in z, a quarter of the
    u-distance to the nearest image of one in u (:func:`_log_reach`).  Then
    :func:`_correct` refines it.  A corrected
    point more than twice the reach from x may have changed branch of the
    log, or sheet at a zero, and is refused.  On a refusal ds is halved;
    after an accepted step ds is scaled toward a prediction of 80% of the
    reach, and of at most twice the last move: in proportion in z and at a
    pole, through the log at a zero (:func:`_zero_chart_step`).  ``ds=None``
    starts a unit-speed target (|dtarget/ds| = 1) at that 80% step.

    Returns ``(mark, nodes, arrival)`` at the first step into the ball of a
    record of ``params.marked``: of ``radius`` around ``target`` (its gap is
    |z - v| - radius, or 1/radius - |z| at INFINITY), of ``ARRIVAL_RADIUS``
    around the others, by :func:`_correct`'s distance at a pole, in the disc
    at a zero, in w = 1/z at INFINITY; ``arrival()`` locates the s where the
    gap vanishes (:func:`_arrival`).  Raises :class:`_Stopped` on a stall, an
    undefined target, or when s reaches ``s_max`` first.
    """
    form = params.form
    positions = form.positions
    signed = tuple(sign * r for r in form.residues)
    marked = params.marked
    discs = _discs(marked)
    v, limit = target.position, 1.0 / radius
    gap = (lambda z: limit - abs(z)) if v is INFINITY else (lambda z: abs(z - v) - radius)
    f = sum(r / (z0 - p) for p, r in zip(positions, signed))
    chart, x, slope, reach = _chart_at(discs, positions, signed, z0, q0, f)
    s, z, q = 0.0, z0, q0
    node = (s, z, q, *start, slope, x, chart)
    nodes = [node]
    if ds is None:
        # a unit-speed target, which at a zero leaves it
        if chart is None or chart.qv is None:
            ds = 0.8 * reach * abs(slope)
        else:
            ds = _zero_chart_step(chart, q, slope, (q - chart.qv) / abs(q - chart.qv), 1.0,
                                  0.8 * reach)
    for _ in range(_MAX_STEPS):
        if ds < _MIN_STEP:
            break
        s_new = min(s_max, s + ds)
        step = advance(s_new, node)
        if step is None:
            raise _Stopped("undefined", z)
        target_new, aux_new = step
        guess = _predict(chart, q, slope, target_new)
        if not abs(guess) <= reach:
            ds *= 0.5
            continue
        step = _correct(positions, signed, chart, x, q, x + guess, target_new)
        if step is None or abs(step[0] - x) > 2.0 * reach:
            ds *= 0.5
            continue
        x_new, z_new, q_new, slope_new, nearest = step
        reached = None
        if gap(z_new) <= 0.0:
            reached = target
        elif nearest < ARRIVAL_RADIUS:
            reached = marked[min(range(len(positions)), key=lambda k: abs(z_new - positions[k]))]
        elif abs(z_new) * ARRIVAL_RADIUS >= 1.0 and marked[-1].position is INFINITY:
            reached = marked[-1]
        elif chart is not None and chart.qv is not None and abs(z_new - chart.v) < ARRIVAL_RADIUS:
            reached = next(m for m in marked if m.position == chart.v)
        if reached is not None:
            return reached, nodes, lambda: _arrival(positions, signed, node, s_new, advance, gap)
        if s_new == s_max:
            raise _Stopped("span", z_new)
        moved = abs(x_new - x)
        if chart is not None and x_new.real < chart.log_radius:
            reach = _log_reach(chart.images, x_new)
            new_chart = chart
        else:
            f = slope_new if chart is None else slope_new / (z_new - chart.v)
            new_chart, x_new, slope_new, reach = _chart_at(discs, positions, signed,
                                                           z_new, q_new, f)
            if new_chart is not None or chart is not None:
                # the move in the coordinate of the new chart
                moved = abs(z_new - z) / (1.0 if new_chart is None else abs(z_new - new_chart.v))
        # aim the next prediction at 80% of the distance it may move, and at
        # most twice the last move
        if not moved:
            ds *= 2.0
        elif new_chart is not None and new_chart.qv is not None:
            ds = _zero_chart_step(new_chart, q_new, slope_new, target_new - node[3], ds,
                                  min(2.0 * moved, 0.8 * reach))
        else:
            ds *= min(2.0, 0.8 * reach / moved)
        s, z, q, x, slope, chart = s_new, z_new, q_new, x_new, slope_new, new_chart
        node = (s, z, q, target_new, aux_new, slope, x, chart)
        nodes.append(node)
    raise _Stopped("stalled", z)


def _zero_chart_step(chart, q: complex, slope: complex, change: complex, ds: float,
                     aim: float) -> float:
    """The step in s that moves u by about ``aim`` in the chart of a zero a,
    the target having moved by ``change`` over the last step ``ds``.

    log(Q - Q(a)) moves by log(1 + rho) for a relative change rho of
    target - Q(a), and by about 2 per unit of u, so a step that leaves a
    grows geometrically in s where the linear rule of the other charts would
    let it at most double.
    """
    g = q - chart.qv
    rho = change / g
    if rho == 0.0:
        return 2.0 * ds
    k = aim * abs(slope / g)
    grow = math.expm1(k) if rho.real >= 0.0 else -math.expm1(-k)
    return grow * ds / abs(rho)


def _arrival(positions, signed, node, s_out: float, advance, gap) -> float:
    """The s in (node s, s_out] at which the continuation's gap reaches 0.

    Illinois regula falsi on ``gap(z(s))``, each z(s) found by Newton from
    ``node``, the last node before arrival, in its chart.
    """
    s0, z0, q0, _, _, slope0, x0, chart = node

    def gap_at(s: float) -> float:
        target, _ = advance(s, node)
        guess = x0 + _predict(chart, q0, slope0, target)
        step = _correct(positions, signed, chart, x0, q0, guess, target)
        if step is not None:
            return gap(step[1])
        return gap(guess if chart is None else chart.v + cmath.exp(guess))

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
    nearest node at or below it; each point is found by six Newton steps
    from node k, in the chart of node k (:func:`_correct`): x = z between
    the discs, x = u = log(z - v) in the disc of v, with z - p formed as
    (v - p) + e^u, the term of a pole vertex carried as r_v (u - u_k), and
    at a zero the residual log((Q - Q(a)) / (target - Q(a))).  Each step
    takes ``z - p``, ``r / (z - p)`` and ``r log((z - p) / (z_k - p))`` for
    all poles at once, as ``(n_poles, N)`` arrays, and adds up their rows in
    pole order, Q' from 0 and Q from Q(z_k), with one ``np.add.accumulate``
    each.  Every operation acts point by point, so a point's bits do not
    depend on the batch it is lifted in.  The node and pole arrays are built
    on the first call, so a lift that is never called costs nothing.
    """
    @cache
    def arrays():
        charts = [n[7] for n in nodes]
        return (np.array([n[0] for n in nodes]),
                *(np.array([n[i] for n in nodes], dtype=complex) for i in (2, 5, 6)),
                np.array([c is not None for c in charts]),
                np.array([c is not None and c.qv is not None for c in charts]),
                np.array([-1 if c is None else c.vertex for c in charts]),
                np.array([0j if c is None else c.v for c in charts], dtype=complex),
                np.array([0j if c is None or c.qv is None else c.qv for c in charts],
                         dtype=complex),
                np.array(positions, dtype=complex)[:, None],
                np.array(signed, dtype=float)[:, None])

    def lift(s):
        (node_s, node_q, node_slope, node_x, node_log, node_zero, node_vertex, node_v,
         node_qv, pole_p, pole_r) = arrays()
        s = np.asarray(s, dtype=float)
        k = np.clip(np.searchsorted(node_s, s, side="right") - 1, 0, len(nodes) - 1)
        target = targets(s, k)
        xk, qk = node_x[k], node_q[k]
        in_disc = node_log[k]
        at_zero = np.flatnonzero(node_zero[k])
        qv = node_qv[k][at_zero]
        step = target - qk
        g = qk[at_zero] - qv
        step[at_zero] = np.log((target[at_zero] - qv) / g) * g
        x = xk + step / node_slope[k]
        v = node_v[k]
        # z - p as offset + e: (v - p) + e^u in a disc, (-p) + z, which is
        # z - p to the bit, between the discs
        offset = np.where(in_disc, v - pole_p, -pole_p)
        base = offset + np.exp(xk, out=xk.copy(), where=in_disc)
        at_vertex = node_vertex[k] == np.arange(len(positions))[:, None]
        # row 0 starts each sum, Q' at 0 and Q at Q(z_k); the pole terms go
        # in the rows below it, and accumulating down the rows adds them
        # pole by pole
        df = np.zeros((len(positions) + 1, x.size), dtype=complex)
        dq = df.copy()
        dq[0] = qk
        for _ in range(6):
            e = np.exp(x, out=x.copy(), where=in_disc)
            d = offset + e
            np.divide(pole_r, d, out=df[1:])
            log_ratio = np.log(d / base)
            np.copyto(log_ratio, x - xk, where=at_vertex)
            np.multiply(pole_r, log_ratio, out=dq[1:])
            f = np.add.accumulate(df)[-1]
            q = np.add.accumulate(dq)[-1]
            residual = q - target
            if at_zero.size:
                g = q[at_zero] - qv
                residual[at_zero] = np.log(g / (target[at_zero] - qv)) * g
            x = x - residual / np.where(in_disc, f * e, f)
        return np.where(in_disc, v + np.exp(x, out=x.copy(), where=in_disc), x)

    return lift


def _dyadic_midpoints(lo, hi, depth):
    """The dyadic points of each interval [lo_i, hi_i], down to ``depth_i`` halvings.

    Each point is ``0.5 * (a + b)`` of the two ends of the interval it halves,
    the expression by which the sample bisection forms it, so that the point
    is the same float.  Returns them interval by interval, each in increasing
    order.
    """
    top = int(depth.max())
    ends = np.empty((lo.size, 2 ** top + 1))
    ends[:, 0], ends[:, -1] = lo, hi
    level = np.zeros(ends.shape[1])
    for k in range(1, top + 1):
        step = 2 ** (top - k + 1)
        ends[:, step // 2::step] = 0.5 * (ends[:, :-1:step] + ends[:, step::step])
        level[step // 2::step] = k
    return ends[(level > 0) & (level <= depth[:, None])]


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
    ends is 2 |arctan e^tau_end - arctan e^tau_start| in closed form.
    The length, the stubs and the endpoint defect are computed at once, from
    the arrival point alone, lifted from the continuation's nodes.  The
    samples are lifted from the same nodes on the first read of
    ``samples``: ``n + 1`` tau-uniform points, with every chord longer than
    four mean spacings bisected in tau (the declared consecutive-distance
    bound), the last of them the arrival point.  The bisection goes level by
    level.  When a level needs midpoints that are not lifted yet, one lift
    call takes the dyadic points of each such chord down to
    ``ceil(log2(chord / bound) + 0.6)`` halvings, at most
    ``BISECT_DEPTH_CAP``, and later levels read them; a lifted point does not
    depend on its batch, so the samples are those of one lift call per
    level.  The depth rule is fitted to the split depths of the traces that
    ``plot`` draws: a chord with ceil(log2(chord / bound)) = k <= 3 needs k
    levels in 84-96% of cases, and the offset keeps the lift calls of a
    trace's samples at five or fewer.
    Tracing starts at chart offset ``LAUNCH_OFFSET`` from ``a`` and stops in
    the first arrival ball of a marked point (:func:`_continue`), of radius
    ``ARRIVAL_RADIUS``, or ``|z| >= min(clip_radius, 2e6)`` at INFINITY.  Both
    cone stubs are closed-form vertex distances
    (:func:`~conemetrics.metric.vertex_distance`), included in ``length``.
    Raises :class:`TraceDiverged` when b is not a pole or marked INFINITY,
    when the trace reaches another mark first, or stalls, and
    :class:`EndpointNotReached` when tau runs 200 without arrival.
    """
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    a = complex(a)
    form = params.form

    try:
        mark_b = params.mark_at(b)
    except NotASingularPoint:
        mark_b = None
    if mark_b is None or mark_b.kind == "zero":
        raise TraceDiverged("|F| has a finite limit at infinity; no radial target there"
                            if b is INFINITY else f"target {complex(b)} is not a pole of the form")
    # |F| grows toward a vertex where omega has a negative residue
    increasing = mark_b.residue < 0.0
    radius = ARRIVAL_RADIUS if b is not INFINITY or clip_radius is None else 1.0 / clip_radius
    b = b if b is INFINITY else complex(b)
    u_hat = _default_launch(params, a, b, increasing) if launch_dir is None \
        else complex(launch_dir) / abs(complex(launch_dir))
    z_start = a + LAUNCH_OFFSET * u_hat
    modulus = developing_modulus(params, z_start)
    if not 0.0 < modulus < math.inf:
        raise ModulusOutOfRange(f"|F| at the launch point {z_start} is {modulus}")
    tau0 = math.log(modulus)
    direction = 1.0 if increasing else -1.0

    def advance(s: float, node) -> tuple[complex, None]:
        return complex(tau0 + direction * s, 0.0), None

    q0 = complex(tau0, 0.0)
    try:
        mark, nodes, arrival = _continue(params, 1.0, z_start, q0, (q0, None), advance, None,
                                         200.0, mark_b, radius)
    except _Stopped as stop:
        reason, z = stop.args
        if reason == "span":
            raise EndpointNotReached(f"trace from {a} never reached {b}")
        raise TraceDiverged(f"radial trace stalled at {z}")
    if mark is not mark_b:
        raise TraceDiverged(f"radial trace arrived at {mark.position} ({mark.kind}) first")
    s_end = arrival()

    lift = _node_lift(nodes, form.positions, form.residues,
                      lambda s, k: tau0 + direction * s)
    # the last sample, lifted alone: the same node and Newton steps as in the grid
    z_end = complex(lift(np.array([s_end]))[0])
    tau_end = tau0 + direction * s_end
    try:
        arc = 2.0 * abs(math.atan(math.exp(tau_end)) - math.atan(math.exp(tau0)))
    except OverflowError:
        raise ModulusOutOfRange(f"|F| = e^{tau_end} at the arrival overflows") from None

    stub_a = float(vertex_distance(params, a, z_start))
    if b is INFINITY and clip_radius is not None:
        stub_b = 0.0  # a clipped trace stops short of infinity on purpose
    else:
        stub_b = float(_vertex_distance(params, mark_b, b, z_end))
    defect = 1.0 / abs(z_end) if b is INFINITY else abs(z_end - b)

    def sample() -> list[complex]:
        s = np.linspace(0.0, s_end, n + 1)
        z = lift(s)
        # the modulus grid crowds samples near the far cone; where the curve
        # sprints through the chart, bisect the grid level by level until every
        # chord stays under four mean spacings of the nominal grid.  A chord
        # that is not split stays as it is, so each level tests only the
        # halves of the chords that the level before split.
        bound = 4.0 * float(np.sum(np.abs(np.diff(z)))) / n
        lo_s, hi_s, lo_z, hi_z = s[:-1], s[1:], z[:-1], z[1:]
        every_s, every_z = [s], [z]
        # midpoints lifted ahead of their level, sorted by s; inf is a sentinel
        ahead_s, ahead_z = np.array([math.inf]), np.zeros(1, dtype=complex)
        while True:
            chord = np.abs(hi_z - lo_z)
            wide = np.flatnonzero((chord > bound) & (hi_s - lo_s >= 1e-12))
            if not wide.size:
                break
            lo_s, hi_s, lo_z, hi_z = lo_s[wide], hi_s[wide], lo_z[wide], hi_z[wide]
            mid = 0.5 * (lo_s + hi_s)
            at = np.searchsorted(ahead_s, mid)
            miss = ahead_s[at] != mid
            if miss.any():
                # a chord r bounds long mostly splits ceil(log2 r) deep; the
                # 0.6 lifts one level more where log2 r lies above its floor + 0.4
                depth = np.minimum(BISECT_DEPTH_CAP,
                                   np.ceil(np.log2(chord[wide[miss]] / bound) + 0.6))
                fresh = _dyadic_midpoints(lo_s[miss], hi_s[miss], depth)
                ahead_s = np.concatenate((ahead_s, fresh))
                order = np.argsort(ahead_s)
                ahead_s = ahead_s[order]
                ahead_z = np.concatenate((ahead_z, lift(fresh)))[order]
                at = np.searchsorted(ahead_s, mid)
            mid_z = ahead_z[at]
            every_s.append(mid)
            every_z.append(mid_z)
            lo_s, hi_s = np.concatenate((lo_s, mid)), np.concatenate((mid, hi_s))
            lo_z, hi_z = np.concatenate((lo_z, mid_z)), np.concatenate((mid_z, hi_z))
        order = np.argsort(np.concatenate(every_s), kind="stable")
        return np.concatenate(every_z)[order].tolist()

    return GeodesicPath(length=stub_a + arc + stub_b,
                        endpoint_defect=defect,
                        stub_lengths=(stub_a, stub_b),
                        sampler=sample)


# ---------------------------------------------------------------------------
# preimages of developed great-circle arcs

def _lift_to_sphere(w: complex) -> tuple[float, float, float]:
    """Inverse stereographic projection onto the unit sphere (0 -> south pole)."""
    d = 1.0 + w.real * w.real + w.imag * w.imag
    return 2.0 * w.real / d, 2.0 * w.imag / d, (d - 2.0) / d


def _arc_preimage(params: MetricParams, z0: complex, phi: float, mod_target: float, target):
    """Lift the great-circle arc from F(z0) to mod_target e^{i phi} back to the chart.

    The starting branch is fixed by taking F(z0) positive real; the arc w(s),
    s in [0, 1], is the minor great circle between the two developed images.
    Its preimage solves Q(z) = log w(s) with Q(z) = sigma log F(z), continued
    by Newton steps (:func:`_continue`) from the real Q(z0) = log|F(z0)|; the
    target is carried by the increments log(w(s') / w(s)).  When
    |F(z0)| > 1 the arc of 1/F is lifted instead (sigma = -1, phase -phi):
    w -> 1/w is a rotation of the sphere, so it is the same curve, while near
    infinity the projection factor 1 - w_z would cancel most of its digits.

    Returns ``(arrival, lift)`` once z enters the ``ARC_ARRIVAL_RADIUS`` ball
    around the mark ``target``: ``arrival()`` locates the arc parameter s_end
    at the ball's boundary, and ``lift`` maps an array of s in [0, s_end] to
    the chart points, each found by Newton from the nearest step node at or
    below it.  Returns None when the arc is degenerate or runs over a
    projection pole, or when its preimage reaches another mark first
    (:func:`_continue`), stalls, or reaches s = 1 outside every ball.
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
        mark, nodes, arrival = _continue(params, sign, z0, q0, (q0, w0), advance, 1.0 / 64.0,
                                         1.0, target, ARC_ARRIVAL_RADIUS)
    except _Stopped:
        return None
    if mark is not target:
        return None

    @cache
    def node_targets():
        return tuple(np.array([n[i] for n in nodes], dtype=complex) for i in (3, 4))

    def targets(s, k):
        node_t, node_w = node_targets()
        ca = np.sin((1.0 - s) * omega) / sin_omega
        cb = np.sin(s * omega) / sin_omega
        w = (ca * ax + cb * bx + 1j * (ca * ay + cb * by)) / (1.0 - (ca * az + cb * bz))
        return node_t[k] + np.log(w / node_w[k])

    signed = tuple(sign * r for r in form.residues)
    return arrival, _node_lift(nodes, form.positions, signed, targets)

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
    sides = [(side(phi), phi) for phi in phases.values()]
    out = []
    for z0 in LAUNCH_POINTS:
        # arg F(z0) - arg F(0) along the segment from 0: the lift starts at z0
        step = math.fsum(p.residue * cmath.phase((z0 - p.position) / -p.position)
                         for p in poles)
        out += [(length, phi, z0, phi - step) for length, phi in sides]
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
    point, lifts from there into the ARC_ARRIVAL_RADIUS ball around 1 before
    any other mark's (:func:`_arc_preimage`).  Returns ``(L01, phi, z0)`` of
    the first that lifts, and raises :class:`EndpointNotReached` when none
    does.  ``L01`` and ``phi`` are taken at the vertex, so they do not depend
    on the sheet that realizes the class.
    """
    mod1 = developing_modulus(params, 1.0)
    one = params.mark_at(1.0)
    for length, phi, z0, phi_lift in _l01_candidates(params):
        if _arc_preimage(params, z0, phi_lift, mod1, one) is not None:
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
