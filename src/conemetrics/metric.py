"""Pointwise evaluation of the spherical conical metric and its local checks.

The metric attached to a character form ``omega = f dz`` with family
constant ``c`` is conformal,

    ds^2 = lambda^2(z) |dz|^2,
    lambda^2 = Phi (4 - Phi) / 4 * |f|^2,
    Phi = 4 e^s / (1 + e^s),     s = potential(z) + c,

which is exactly the pullback of the round sphere metric under the
(multi-valued) developing map F with |F|^2 = e^s.  Everything in this
module is a plain function of a :class:`MetricParams`; the only state kept
is what is built once per form and read on every call: the positions,
residues and zeros of a :class:`~conemetrics.forms.CharacterForm`, and the
marked points of a :class:`MetricParams`, one :class:`Mark` each, which every
layer reads; only the one-point entry points look one up by position
(:meth:`MetricParams.mark_at`).

Every array of points goes through one numpy kernel (``_evaluate``): the
curvature stencil, the cone-angle contours (all of them in one call, by
``_cone_angle_estimates``), the CSV grid, and the scattered points of
``verify``'s checks, and ``plot``'s level sets of log|F| = s / 2.  Each
point goes through it once: the curvature stencil reads ``s`` and the
density at its centres, which the CSV grid hands it from its own call
(``_curvature``), and it evaluates its arms only at the few cells next to
a marked point or with a density near underflow; elsewhere the centre
shows that each arm is usable.  One of ``verify``'s checks compares the
kernel with the developing route, whose array form
(``_developing_density``) is kept apart from the kernel on purpose.  The
CSV grid is the one computation spread over CPUs: a large grid is cut into
parts of whole kernel blocks, and each part but the first is written by a
forked child (``write_density_grid_csv``).
The scalar logistic route (``density_at`` and ``phi_at`` in
``tests/oracles.py``) is an independent oracle of the kernel; the two agree
to rounding, not bit for bit.  The Newton continuation of log F in
``geodesics`` runs its own lean loop over the poles.

Around a cone point F is an isometry onto the round sphere, so the distance
to the vertex is closed-form (``vertex_distance``): ``2 arctan |F|^{+-1}``
where the vertex develops to 0 or infinity, the chordal distance from F(a)
at a zero a.  Cone angles then follow from the spherical cone law
``C = theta sin rho`` without any quadrature.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import forms
from .errors import (
    ModulusOutOfRange,
    NotASingularPoint,
    QuadratureNearPole,
    StencilHitsSingularity,
)
from .forms import INFINITY, POLE_GUARD, CharacterForm

#: default finite-difference step for curvature stencils.  Paired, the arms
#: round K by at most 5e-7 at every step; K - 1 is then the O(h^2) truncation,
#: at most 4.2e-5 at the worst verify cell measured, 900 times the rounding
CURVATURE_STEP = 1e-5

#: the curvature stencil evaluates its arms only at cells within this many
#: steps h (plus ``POLE_GUARD``) of a finite marked point, or where the centre's
#: density is below ``ARM_SCREEN_DENSITY``.  Elsewhere each distance from an arm
#: to a pole or zero is within a factor 4/3 of the centre's, so lambda^2 changes
#: by at most (4/3)^(2 (zeros + poles + sum |r_k|)) between them: far less than
#: the 1e123 from ``ARM_SCREEN_DENSITY`` down to the smallest subnormal
ARM_SCREEN_STEPS = 4
ARM_SCREEN_DENSITY = 1e-200

#: points per kernel call of :func:`write_density_grid_csv`, rounded down to whole
#: rows: enough to spread the per-call cost, few enough that the stencil's
#: temporaries stay small (4096 points raise a 201 x 201 run's peak RSS by ~10%).
#: A grid's parts are cut at these blocks, so each part makes the same kernel
#: calls as the one-part loop
CSV_BLOCK_POINTS = 1024

#: fewest cells per part of :func:`write_density_grid_csv`: a grid is cut only
#: from 2 * 4096 cells (91 x 91), since a child's part must earn back its fork,
#: reaping and copy, and the pages its parent then copies on write.  The 41 x 41
#: and 61 x 61 grids stay one part.  On a 2-vCPU VM two parts of 201 x 201 took
#: 0.58-0.60x the one-part time (CHANGES.md has the table)
CSV_PART_CELLS = 4096


class Mark(NamedTuple):
    """One marked point: its ``position`` (or INFINITY), its ``kind`` ("pole",
    "zero" or "infinity"), the ``residue`` of omega there (0 at a zero,
    ``-sum r_k`` at INFINITY), the ``coefficient`` k of its cone angle
    2 pi k, its index ``pole`` into ``form.poles`` (-1 at a zero or INFINITY),
    and its ``clearance``: the chart distance to the nearest other finite
    mark, ``1 / max |q|`` at INFINITY."""

    position: object
    kind: str
    residue: float
    coefficient: float
    pole: int
    clearance: float


@dataclass(frozen=True)
class MetricParams:
    """A character form together with the additive log-scale constant c.

    The marked points are found on first use and kept, since the checks and
    the cone-point closed forms read them on every call.
    """

    form: CharacterForm
    c_log: float = 0.0

    @cached_property
    def marked(self) -> tuple[Mark, ...]:
        """One :class:`Mark` per marked point: the poles in order, the finite
        zeros, then INFINITY unless it is a regular point.  Smooth points
        (coefficient 1) are still listed."""
        form = self.form
        finite = [(p.position, "pole", p.residue, abs(p.residue), k)
                  for k, p in enumerate(form.poles)]
        finite += [(root, "zero", 0.0, order + 1.0, -1) for root, order in form.zeros]
        points = [v for v, *_ in finite]
        out = [Mark(*entry, min(abs(w - v) for j, w in enumerate(points) if j != i))
               for i, (v, entry) in enumerate(zip(points, finite))]
        res_inf = forms.residue_at_infinity(form)
        if res_inf != 0.0:
            out.append(Mark(INFINITY, "infinity", res_inf, abs(res_inf), -1,
                            1.0 / max(abs(w) for w in points)))
        return tuple(out)

    def mark_at(self, p) -> Mark:
        """The record of the marked point at p: a pole within 1e-9, a zero
        within 1e-7, or INFINITY; raises ``NotASingularPoint`` elsewhere."""
        if p is INFINITY:
            if self.marked[-1].position is INFINITY:
                return self.marked[-1]
            raise NotASingularPoint("infinity is a regular point of this form")
        p = complex(p)
        for mark in self.marked:
            if (mark.kind != "infinity"
                    and abs(p - mark.position) <= (1e-9 if mark.kind == "pole" else 1e-7)):
                return mark
        raise NotASingularPoint(f"{p} is neither a pole, a zero, nor infinity")


def developing_modulus(params: MetricParams, z) -> float:
    """|F(z)| = e^{c/2} * prod_k |z - p_k|^{r_k}, single-valued on the sphere.

    Returns 0 or +inf at the poles according to the residue signs, and the
    appropriate limit at INFINITY (governed by the sign of ``sum r_k``).
    Raises ``ModulusOutOfRange`` where e^{c/2} overflows and the limit at
    INFINITY is not 0 or +inf.
    """
    if z is INFINITY:
        total = -forms.residue_at_infinity(params.form)
        if total > 0.0:
            return math.inf
        if total < 0.0:
            return 0.0
    try:
        out = math.exp(0.5 * params.c_log)
    except OverflowError:
        raise ModulusOutOfRange(f"e^(c/2) overflows at c = {params.c_log}") from None
    if z is INFINITY:
        # residues cancel: |F| tends to the finite product limit e^{c/2}
        return out
    z = complex(z)
    for p in params.form.poles:
        base = abs(z - p.position)
        if base == 0.0:
            return math.inf if p.residue < 0.0 else 0.0
        try:
            out *= base ** p.residue
        except OverflowError:
            return math.inf
    return out


def _developing_density(params: MetricParams, z: np.ndarray) -> np.ndarray:
    """lambda^2 via the developing route over a complex array of points off the poles.

    Uses |F'| = |F| |f| (logarithmic differentiation), so no branch of F is
    ever differentiated, and builds ``u = |F|^2 = e^c prod_k |z - p_k|^{2 r_k}``
    as a product, not from the kernel's log-sum: it agrees with
    :func:`_evaluate` to roundoff, and the two routes share no arithmetic
    beyond f itself.  Where ``(1 + u)^2`` overflows, ``4 u |f|^2`` is divided
    by ``1 + u`` twice; where u itself overflows the density is taken as 0.
    """
    f = forms._coefficient(params.form, z)
    with np.errstate(all="ignore"):
        u = np.full(z.shape, np.exp(params.c_log))
        for p in params.form.poles:
            u *= np.abs(z - p.position) ** (2.0 * p.residue)
        f2 = f.real * f.real + f.imag * f.imag
        square = (1.0 + u) ** 2
        density = 4.0 * u * f2 / square
        # past u = 1.3e154 the square overflows: divide by 1 + u twice instead
        density = np.where(np.isinf(square), 4.0 * f2 * (u / (1.0 + u)) / (1.0 + u), density)
    return np.where(np.isinf(u), 0.0, density)


def _evaluate(params: MetricParams, z: np.ndarray, guard: float = POLE_GUARD):
    """``s``, Phi and lambda^2 over a complex array.

    Returns ``(s, phi, density)``, each nan at non-finite points and within
    ``guard`` of a pole.  ``s = c + sum_k 2 r_k log|z - p_k|`` is summed in
    pole order; ``plot`` reads log|F| = s / 2 with ``guard=0.0``, since its
    level sets may pass right by a pole.
    """
    potential = np.zeros(z.shape)
    f = np.zeros(z.shape, dtype=complex)
    nearest = np.full(z.shape, np.inf)
    with np.errstate(all="ignore"):
        for p in params.form.poles:
            d = z - p.position
            r = np.abs(d)
            nearest = np.minimum(nearest, r)
            potential += 2.0 * p.residue * np.log(r)
            f += p.residue / d
        ok = np.isfinite(z) & (nearest > guard)
        s = np.where(ok, potential + params.c_log, np.nan)
        t = np.exp(-np.abs(s))
        phi = np.where(s >= 0.0, 4.0 / (1.0 + t), 4.0 * t / (1.0 + t))
        density = 4.0 * t / (1.0 + t) ** 2 * (f.real * f.real + f.imag * f.imag)
    return s, phi, density


def curvature_field(params: MetricParams, z, h: float = CURVATURE_STEP) -> np.ndarray:
    """Gaussian curvature K at every point of the complex array ``z``.

    ``log lambda = log|f| + log 2 - sigma s / 2 - g`` with
    ``g = log1p(e^{-sigma s})`` holds for either sign ``sigma``; the first
    three terms are harmonic off the singular points, so
    ``K = -laplacian(log lambda) / lambda^2 = laplacian(g) / lambda^2``.
    The Laplacian of ``g`` alone is taken with the 5-point stencil of
    spacing ``h``, ``sigma`` being the sign of ``s`` at the stencil centre.

    Where the density is tiny, ``g`` is about ``e^{-|s|}``, so no value of
    ``s`` is subtracted from another: each arm's ``ds = sum_k r_k log|1 + w_k|^2``,
    ``w_k = d / (z - p_k)``, and the arms ``+-d`` of each axis are summed in
    closed form, since their O(h) terms cancel only in the sum.  With
    ``a, b = -sigma ds(+-d)`` and ``q = e^{-sigma s} / (1 + e^{-sigma s})``,
    ``dg(+d) + dg(-d) = log1p(q expm1(a + b) - q (1 - q) expm1(a) expm1(b))``,
    ``a + b = -sigma sum_k r_k log|1 - w_k^2|^2``.  K is nan where a stencil
    point lies within ``POLE_GUARD`` of a pole or has zero density.

    The kernel runs once, on the centres; the arms go through it only at
    the cells that :func:`_curvature` cannot clear from the centre alone.
    """
    z = np.asarray(z, dtype=complex)
    s, _, density = _evaluate(params, z)
    return _curvature(params, z, s, density, h)


def _curvature(params: MetricParams, z: np.ndarray, s: np.ndarray, density: np.ndarray,
               h: float) -> np.ndarray:
    """:func:`curvature_field` from the kernel's ``s`` and density at the centres ``z``.

    A cell is usable where the density is positive at its centre and at its
    four arms.  The arms are evaluated only at the cells whose centre lies
    within ``ARM_SCREEN_STEPS * h + POLE_GUARD`` of a finite marked point,
    or whose density is below ``ARM_SCREEN_DENSITY``.  Elsewhere every arm
    is at least ``(ARM_SCREEN_STEPS - 1) h`` from each pole and zero, so
    ``|f|`` and ``e^s`` change by a bounded factor between centre and arm,
    and the arm's density stays far above underflow.
    """
    if not (1e-6 <= h <= 1e-2):
        raise ValueError(f"stencil step h={h} outside [1e-6, 1e-2]")
    offsets = np.array([h, -h, 1j * h, -1j * h])
    arms = offsets.reshape((4,) + (1,) * z.ndim)
    usable = np.array(density > 0.0)  # false at nan
    screen = np.array(density < ARM_SCREEN_DENSITY)
    reach = ARM_SCREEN_STEPS * h + POLE_GUARD
    for mark in params.marked:
        if mark.kind != "infinity":
            screen |= np.abs(z - mark.position) < reach
    screen &= usable
    if screen.any():
        _, _, arm_density = _evaluate(params, z[screen] + offsets[:, None])
        usable[screen] = np.all(arm_density > 0.0, axis=0)
    with np.errstate(all="ignore"):
        ds = np.zeros(arms.shape[:1] + z.shape)
        pairs = np.zeros((2,) + z.shape)
        for p in params.form.poles:
            w = arms / (z - p.position)
            ds += p.residue * np.log1p(2.0 * w.real + (w.real * w.real + w.imag * w.imag))
            # |1 + w|^2 |1 - w|^2 = |1 + v|^2 with v = -w^2, w the + arm of each axis
            v = -w[0::2] * w[0::2]
            pairs += p.residue * np.log1p(2.0 * v.real + (v.real * v.real + v.imag * v.imag))
        flip = s >= 0.0
        t = np.exp(-np.abs(s))
        q = t / (1.0 + t)
        e = np.expm1(np.where(flip, -ds, ds))
        dg = np.log1p(q * np.expm1(np.where(flip, -pairs, pairs))
                      - q / (1.0 + t) * (e[0::2] * e[1::2]))
        lap = (dg[0] + dg[1]) / (h * h)
        return np.where(usable, lap / density, np.nan)


def _phi_gradient_residuals(params: MetricParams, z: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Residual of the defining gradient identity for Phi at each point of ``z``.

    Checks grad Phi = Phi(4-Phi)/4 * (2 Re f, -2 Im f) with a central
    difference on the left, normalised by max(1, |grad Phi|).  Phi comes
    from one kernel call on the stacked stencil ``z, z +- h, z +- ih``;
    raises ``StencilHitsSingularity`` where a stencil point lies within
    ``POLE_GUARD`` of a pole.
    """
    arms = np.array([0.0, h, -h, 1j * h, -1j * h]).reshape((5,) + (1,) * z.ndim)
    _, phi, _ = _evaluate(params, z + arms)
    f = forms._coefficient(params.form, z)
    dphi_dx = (phi[1] - phi[2]) / (2.0 * h)
    dphi_dy = (phi[3] - phi[4]) / (2.0 * h)
    factor = phi[0] * (4.0 - phi[0]) / 4.0
    rx = dphi_dx - factor * 2.0 * f.real
    ry = dphi_dy - factor * (-2.0) * f.imag
    residual = np.hypot(rx, ry) / np.maximum(1.0, np.hypot(dphi_dx, dphi_dy))
    hit = np.flatnonzero(np.isnan(residual))
    if hit.size:
        raise StencilHitsSingularity(
            f"gradient stencil at {complex(z.flat[hit[0]])} touched a pole")
    return residual


# ---------------------------------------------------------------------------
# cone angles

def vertex_distance(params: MetricParams, p, z) -> np.ndarray:
    """Spherical distance from the marked point p to each point of the complex array z.

    Around a cone point the developing map F is an isometry onto the round
    sphere, so the distance is that between the developed images, in closed
    form.  A pole, or INFINITY, develops to 0 or infinity:

        rho = 2 arctan e^{sigma s / 2},

    with sigma the sign of the residue of omega there (``-sum r_k`` at
    INFINITY), not of ``|F| - 1``: with a small residue and ``c > 0``,
    ``|F|`` can exceed 1 close to a vertex at 0.  A zero a develops to
    F(a) = m e^{i t}, and F(z) = F(a) e^L with
    ``L = sum_k r_k log1p((z - a) / (a - p_k))``, so the chordal distance gives

        tan(rho / 2) = m |expm1 L| / |1 + m^2 e^L|.

    Valid while z is nearer to p than every other singular point; at a zero,
    a is p as given, not the root in its record.
    """
    return _vertex_distance(params, params.mark_at(p), p, z)


def _vertex_distance(params: MetricParams, mark: Mark, p, z) -> np.ndarray:
    """:func:`vertex_distance` from the record of the marked point p."""
    z = np.asarray(z, dtype=complex)
    if mark.kind == "zero":
        a = complex(p)
        m = developing_modulus(params, a)
        log_ratio = sum(q.residue * np.log1p((z - a) / (a - q.position))
                        for q in params.form.poles)
        # the formula above divided through by m, so that m^2 cannot overflow
        return 2.0 * np.arctan(np.abs(np.expm1(log_ratio))
                               / np.abs(1.0 / m + m * np.exp(log_ratio)))
    s, _, _ = _evaluate(params, z)
    return _distance_to_pole(s, mark.residue)


def _distance_to_pole(s: np.ndarray, residue: float) -> np.ndarray:
    """``2 arctan e^{sigma s / 2}``: the distance to a vertex that develops to 0 or
    infinity, from the kernel's ``s``, ``sigma`` being the sign of the residue there."""
    return 2.0 * np.arctan(np.exp(math.copysign(0.5, residue) * s))


def cone_angle_estimate(params: MetricParams, p, eps: float = 1e-3, n: int = 1024) -> float:
    """Estimate the cone angle at a marked point by the spherical cone law.

    A circle at distance rho from the vertex of a spherical cone of angle
    theta has length ``theta sin rho``.  The chart circle ``|z - v| = eps``
    around the marked point v at p is such a circle only to first order, so
    the estimate sums ``lambda |dz| / sin rho`` over its ``n`` nodes
    (trapezoid rule, spectrally accurate for the smooth periodic integrand),
    ``rho`` being :func:`vertex_distance`.  It gives 2 pi k up to about
    ``0.26 (eps / d)^2`` relative, ``d`` the mark's clearance.  For
    ``p = INFINITY`` the circle is ``|w| = eps`` in the w = 1/z chart, where
    the density is ``lambda / |w|^2``.
    """
    return _cone_angle_estimates(params, [(params.mark_at(p), eps)], n)[0]


def _cone_angle_estimates(params: MetricParams, contours, n: int = 1024) -> list[float]:
    """:func:`cone_angle_estimate` at each ``(mark, eps)`` of ``contours``.

    The contours are stacked as one ``(len(contours), n)`` array and go
    through one kernel call; the rest of each estimate is taken row by row,
    so each is the same float as a one-point call gives.  Raises
    ``QuadratureNearPole`` where a mark's clearance is below 3 eps.
    """
    for _, eps in contours:
        if not (1e-5 <= eps <= 1e-2):
            raise ValueError(f"eps={eps} outside [1e-5, 1e-2]")
    if n < 256:
        raise ValueError(f"need at least 256 contour nodes, got {n}")
    unit = np.exp(2j * math.pi / n * np.arange(n))
    rows, scales = [], []
    for mark, eps in contours:
        if mark.clearance < 3.0 * eps:
            if mark.position is INFINITY:
                raise QuadratureNearPole("a finite singular point crowds the contour at infinity")
            raise QuadratureNearPole(f"another singular point within 3*eps of {mark.position}")
        circle = eps * unit
        at_infinity = mark.position is INFINITY
        rows.append(1.0 / circle if at_infinity else mark.position + circle)
        scales.append(1.0 / (eps * eps) if at_infinity else 1.0)
    z = np.array(rows)
    s, _, density = _evaluate(params, z)
    out = []
    for i, (mark, eps) in enumerate(contours):
        if mark.kind == "zero":
            sin_rho = np.sin(_vertex_distance(params, mark, mark.position, z[i]))
        else:
            # sin(2 arctan e^{sigma s / 2}) = sech(s / 2): it keeps its digits
            # where a large |s| rounds rho to pi
            sin_rho = 1.0 / np.cosh(0.5 * s[i])
        arc = np.sqrt(density[i]) / sin_rho
        out.append(float(scales[i] * eps * 2.0 * math.pi / n * np.sum(arc)))
    return out


# ---------------------------------------------------------------------------
# CSV grid export

def write_density_grid_csv(params: MetricParams, bounds, nx: int, ny: int, fh,
                           h: float = CURVATURE_STEP) -> None:
    """Write the re,im,phi,density,curvature grid as CSV to an open text file.

    Rows are emitted in order with x varying fastest, 17 significant digits
    throughout.  ``phi`` and ``density`` are nan within ``POLE_GUARD`` of a
    pole, and ``curvature`` is nan where its stencil touches a singular
    point.  The grid is evaluated in blocks of whole rows, one kernel call
    of about ``CSV_BLOCK_POINTS`` points each (one row where a row is
    longer), and each block is written before the next, so memory is
    bounded by the block, not by ``nx * ny``.  Each row is formatted by one
    ``%`` call, its x column baked into a format built once per grid.

    A grid of at least ``2 * CSV_PART_CELLS`` cells is cut at block
    boundaries into contiguous parts of rows, at most one per CPU of this
    process's affinity mask (``os.cpu_count()`` where there is none), and
    one where ``os.fork`` is missing.  This process writes part 0 to ``fh``;
    each other part is written by a child made with ``os.fork`` into an
    anonymous temporary file, and appended to ``fh`` in row order, in
    bounded chunks.  Every part is written by the same loop over the same
    blocks, so the bytes are those of one part.  A forked child starts on
    its parent's CPU, and the scheduler may leave it there for its whole
    part, so each child pins itself to one of the other CPUs of the mask
    (this one from ``sched_getcpu``); where that fails it runs unpinned.  A
    child ends in ``os._exit``, flushing nothing it inherited; it runs only
    the kernel and the formatting (numpy's OpenBLAS stops its threads across
    a fork).  Every child is reaped before this returns or raises, and a
    child that failed raises ``OSError`` naming its part.
    """
    x0, x1, y0, y1 = bounds
    xs = [x0 + (x1 - x0) * ix / (nx - 1) for ix in range(nx)]
    row_format = "".join(f"{x:.17g},%s,%.17g,%.17g,%.17g\n" for x in xs)
    rows = max(1, CSV_BLOCK_POINTS // max(nx, 1))

    def write_rows(start: int, stop: int, out) -> None:
        for first in range(start, stop, rows):
            ys = [y0 + (y1 - y0) * iy / (ny - 1) for iy in range(first, min(stop, first + rows))]
            z = np.empty((len(ys), nx), dtype=complex)
            z.real = xs
            z.imag = np.array(ys)[:, None]
            s, phi, den = _evaluate(params, z)
            cur = _curvature(params, z, s, den, h)
            for y, p, d, k in zip(ys, phi.tolist(), den.tolist(), cur.tolist()):
                cells = zip(repeat(f"{y:.17g}"), p, d, k)
                out.write(row_format % tuple(chain.from_iterable(cells)))

    blocks = -(-ny // rows)
    affinity = getattr(os, "sched_getaffinity", None)
    mask = sorted(affinity(0)) if affinity else []
    cpus = len(mask) or os.cpu_count() or 1
    parts = max(1, min(cpus, blocks, nx * ny // CSV_PART_CELLS)) if hasattr(os, "fork") else 1
    # part k holds rows cuts[k] to cuts[k + 1] - 1
    cuts = [min(ny, rows * (blocks * k // parts)) for k in range(parts + 1)]
    others = []  # the CPUs the children are pinned to
    if parts > 1 and mask:
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
        sched_getcpu.argtypes, sched_getcpu.restype = (), ctypes.c_int
        here = sched_getcpu()
        others = [cpu for cpu in mask if cpu != here] if here in mask else []
    fh.write("re,im,phi,density,curvature\n")
    with contextlib.ExitStack() as stack:
        children = []
        try:
            for k in range(1, parts):
                spill = stack.enter_context(tempfile.TemporaryFile("w+"))
                pid = os.fork()
                if pid == 0:  # the child: write part k, then exit without any cleanup
                    code = 1
                    try:
                        if others:
                            with contextlib.suppress(OSError):  # a hint: the CPU may be gone
                                os.sched_setaffinity(0, {others[(k - 1) % len(others)]})
                        write_rows(cuts[k], cuts[k + 1], spill)
                        spill.flush()
                        code = 0
                    finally:
                        os._exit(code)
                children.append((k, pid, spill))
            write_rows(cuts[0], cuts[1], fh)
        finally:
            statuses = [os.waitpid(pid, 0)[1] for _, pid, _ in children]
        for (k, _, _), status in zip(children, statuses):
            if status != 0:
                raise OSError(f"part {k} of {parts} of the grid (rows {cuts[k]} to "
                              f"{cuts[k + 1] - 1}) failed: exit code "
                              f"{os.waitstatus_to_exitcode(status)}")
        for _, _, spill in children:
            spill.seek(0)
            shutil.copyfileobj(spill, fh)
