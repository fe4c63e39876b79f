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
marked points of a :class:`MetricParams`.

Every array of points goes through one numpy kernel (``_evaluate``): the
curvature stencil, the cone-angle contours, the CSV grid, and the scattered
points of ``verify``'s checks.  One of those checks compares the kernel with
the developing route, whose array form (``_developing_density``) is kept
apart from the kernel on purpose.  The scalar evaluators ``density_at`` and
``phi_at`` stay as independent oracles of the kernel; the two agree to
rounding, not bit for bit.  The Newton continuation of log F in
``geodesics`` runs its own lean loop over the poles.

Around a cone point F is an isometry onto the round sphere, so the distance
to the vertex is closed-form (``vertex_distance``): ``2 arctan |F|^{+-1}``
where the vertex develops to 0 or infinity, the chordal distance from F(a)
at a zero a.  Cone angles then follow from the spherical cone law
``C = theta sin rho`` without any quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import forms
from .errors import (
    NotASingularPoint,
    QuadratureNearPole,
    StencilHitsSingularity,
)
from .forms import INFINITY, POLE_GUARD, CharacterForm

#: default finite-difference step for curvature stencils; balances O(h^2)
#: truncation against O(ulp/h^2) rounding in double precision
CURVATURE_STEP = 1e-4


@dataclass(frozen=True)
class MetricParams:
    """A character form together with the additive log-scale constant c.

    The marked points are found on first use and kept, since the checks and
    the cone-point closed forms read them on every call.
    """

    form: CharacterForm
    c_log: float = 0.0

    @cached_property
    def marked(self) -> tuple[tuple[object, str, float], ...]:
        """The marked points; see :func:`singular_points`."""
        form = self.form
        out = [(p.position, "pole", abs(p.residue)) for p in form.poles]
        out += [(root, "zero", order + 1.0) for root, order in form.zeros]
        res_inf = forms.residue_at_infinity(form)
        if res_inf != 0.0:
            out.append((INFINITY, "infinity", abs(res_inf)))
        return tuple(out)


def _sigmoid(s: float) -> float:
    """Overflow-free logistic 1 / (1 + e^-s)."""
    if s >= 0.0:
        return 1.0 / (1.0 + math.exp(-s))
    t = math.exp(s)
    return t / (1.0 + t)


def log_scale_at(params: MetricParams, z) -> float:
    """s(z) = potential(z) + c, the log of the squared developing modulus."""
    return forms.potential_at(params.form, z) + params.c_log


def phi_at(params: MetricParams, z) -> float:
    """Phi(z) = 4 e^s / (1 + e^s), always strictly inside (0, 4).

    Evaluated as ``4 * sigmoid(s)`` so that large positive or negative
    ``s`` never exponentiates past the float range.
    """
    return 4.0 * _sigmoid(log_scale_at(params, z))


def density_at(params: MetricParams, z) -> float:
    """Conformal density lambda^2(z) = Phi (4 - Phi) / 4 * |f(z)|^2."""
    form = params.form
    z = forms._require_off_poles(form, z)
    s = forms._potential(form, z) + params.c_log
    f = forms._coefficient(form, z)
    # Phi (4 - Phi) / 4 = 4 sigmoid(s) sigmoid(-s), computed from e^{-|s|}
    t = math.exp(-abs(s))
    bell = 4.0 * t / (1.0 + t) ** 2
    return bell * (f.real * f.real + f.imag * f.imag)


def developing_modulus(params: MetricParams, z) -> float:
    """|F(z)| = e^{c/2} * prod_k |z - p_k|^{r_k}, single-valued on the sphere.

    Returns 0 or +inf at the poles according to the residue signs, and the
    appropriate limit at INFINITY (governed by the sign of ``sum r_k``).
    """
    if z is INFINITY:
        total = -forms.residue_at_infinity(params.form)
        if total > 0.0:
            return math.inf
        if total < 0.0:
            return 0.0
        # residues cancel: |F| tends to the finite product limit e^{c/2}
        return math.exp(0.5 * params.c_log)
    z = complex(z)
    out = math.exp(0.5 * params.c_log)
    for p in params.form.poles:
        base = abs(z - p.position)
        if base == 0.0:
            return math.inf if p.residue < 0.0 else 0.0
        try:
            out *= base ** p.residue
        except OverflowError:
            return math.inf
    return out


def density_via_developing(params: MetricParams, z) -> float:
    """lambda^2 via the developing route 4 |F'|^2 / (1 + |F|^2)^2, at one point.

    A one-point call of :func:`_developing_density`; raises ``EvalAtPole``
    within ``POLE_GUARD`` of a pole.
    """
    z = forms._require_off_poles(params.form, z)
    return float(_developing_density(params, np.array([z]))[0])


def _developing_density(params: MetricParams, z: np.ndarray) -> np.ndarray:
    """lambda^2 via the developing route over a complex array of points off the poles.

    Uses |F'| = |F| |f| (logarithmic differentiation), so no branch of F is
    ever differentiated, and builds ``u = |F|^2 = e^c prod_k |z - p_k|^{2 r_k}``
    as a product, not from the kernel's log-sum: it agrees with
    :func:`_evaluate` to roundoff, and the two routes share no arithmetic
    beyond f itself.  Where u overflows the density is taken as 0.
    """
    f = forms._coefficient(params.form, z)
    with np.errstate(all="ignore"):
        u = np.full(z.shape, np.exp(params.c_log))
        for p in params.form.poles:
            u *= np.abs(z - p.position) ** (2.0 * p.residue)
        density = 4.0 * u * (f.real * f.real + f.imag * f.imag) / (1.0 + u) ** 2
    return np.where(np.isinf(u), 0.0, density)


def _evaluate(params: MetricParams, z: np.ndarray):
    """Vectorised ``phi_at`` and ``density_at`` over a complex array.

    Returns ``(s, phi, density)``, each nan exactly where the scalar
    evaluators raise: at non-finite points and within ``POLE_GUARD`` of a
    pole.
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
        ok = np.isfinite(z) & (nearest > POLE_GUARD)
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

    Each arm's difference ``g(z + d) - g(z)`` is formed from
    ``s(z + d) - s(z) = sum_k r_k log|1 + d / (z - p_k)|^2`` directly, never
    by subtracting two values of ``s``: where the density is tiny, ``g`` is
    about ``e^{-|s|}`` and the rounding of ``s`` itself would swamp the
    O(h^2 lambda^2) signal.  K is nan where a stencil point lies within
    ``POLE_GUARD`` of a pole or has zero density.
    """
    if not (1e-6 <= h <= 1e-2):
        raise ValueError(f"stencil step h={h} outside [1e-6, 1e-2]")
    z = np.asarray(z, dtype=complex)
    arms = np.array([h, -h, 1j * h, -1j * h]).reshape((4,) + (1,) * z.ndim)
    s, _, density = _evaluate(params, np.concatenate([z[None], z + arms]))
    usable = np.all(density > 0.0, axis=0)  # false at nan
    with np.errstate(all="ignore"):
        ds = np.zeros(arms.shape[:1] + z.shape)
        for p in params.form.poles:
            w = arms / (z - p.position)
            ds += p.residue * np.log1p(2.0 * w.real + (w.real * w.real + w.imag * w.imag))
        # g(s + ds) - g(s) = log1p(q expm1(-sigma ds)), q = e^{-sigma s} / (1 + e^{-sigma s})
        centre = s[0]
        t = np.exp(-np.abs(centre))
        dg = np.log1p(t / (1.0 + t) * np.expm1(np.where(centre >= 0.0, -ds, ds)))
        lap = ((dg[0] + dg[1]) + (dg[2] + dg[3])) / (h * h)
        return np.where(usable, lap / density[0], np.nan)


def gauss_curvature_fd(params: MetricParams, z, h: float = CURVATURE_STEP) -> float:
    """Gaussian curvature at one point, by the stencil of :func:`curvature_field`.

    The result should be 1 up to O(h^2) truncation plus rounding wherever
    the metric is honestly spherical.
    """
    z = complex(z)
    k = float(curvature_field(params, np.array([z]), h)[0])
    if math.isnan(k):
        raise StencilHitsSingularity(f"stencil at {z} touched a singular point")
    return k


def phi_gradient_check(params: MetricParams, z, h: float = 1e-5) -> float:
    """Residual of the defining gradient identity for Phi at one point.

    A one-point call of :func:`_phi_gradient_residuals`.
    """
    z = forms._as_finite_complex(z)
    return float(_phi_gradient_residuals(params, np.array([z]), h)[0])


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

def singular_points(params: MetricParams) -> list[tuple[object, str, float]]:
    """All marked points: (position, kind, cone-angle coefficient).

    ``kind`` is "pole", "zero" or "infinity"; the coefficient k gives cone
    angle 2 pi k (poles: |residue|; zeros: order + 1; infinity: |implied
    residue|).  Smooth points (coefficient 1) are still listed.  They are
    found once per metric; each call returns a fresh list.
    """
    return list(params.marked)


def _classify_singular(params: MetricParams, p, match_tol: float = 1e-9):
    """(kind, residue of omega) at the marked point p; the residue is 0 at a zero."""
    if p is INFINITY:
        res_inf = forms.residue_at_infinity(params.form)
        if res_inf == 0.0:
            raise NotASingularPoint("infinity is a regular point of this form")
        return "infinity", res_inf
    p = complex(p)
    for spec in params.form.poles:
        if abs(p - spec.position) <= match_tol:
            return "pole", spec.residue
    for q, kind, _ in params.marked:
        if kind == "zero" and abs(p - q) <= max(match_tol, 1e-7):
            return "zero", 0.0
    raise NotASingularPoint(f"{p} is neither a pole, a zero, nor infinity")


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

    Valid while z is nearer to p than every other singular point.
    """
    kind, residue = _classify_singular(params, p)
    z = np.asarray(z, dtype=complex)
    if kind == "zero":
        a = complex(p)
        m = developing_modulus(params, a)
        log_ratio = sum(q.residue * np.log1p((z - a) / (a - q.position))
                        for q in params.form.poles)
        # the formula above divided through by m, so that m^2 cannot overflow
        return 2.0 * np.arctan(np.abs(np.expm1(log_ratio))
                               / np.abs(1.0 / m + m * np.exp(log_ratio)))
    s, _, _ = _evaluate(params, z)
    return _distance_to_pole(s, residue)


def _distance_to_pole(s: np.ndarray, residue: float) -> np.ndarray:
    """``2 arctan e^{sigma s / 2}``: the distance to a vertex that develops to 0 or
    infinity, from the kernel's ``s``, ``sigma`` being the sign of the residue there."""
    return 2.0 * np.arctan(np.exp(math.copysign(0.5, residue) * s))


def cone_angle_estimate(params: MetricParams, p, eps: float = 1e-3, n: int = 1024) -> float:
    """Estimate the cone angle at a marked point by the spherical cone law.

    A circle at distance rho from the vertex of a spherical cone of angle
    theta has length ``theta sin rho``.  The chart circle ``|z - p| = eps``
    is such a circle only to first order, so the estimate sums
    ``lambda |dz| / sin rho`` over its ``n`` nodes (trapezoid rule,
    spectrally accurate for the smooth periodic integrand), ``rho`` being
    :func:`vertex_distance`.  It gives 2 pi k up to about
    ``0.26 (eps / d)^2`` relative, ``d`` the chart distance to the nearest
    other singular point.  For ``p = INFINITY`` the circle is ``|w| = eps``
    in the w = 1/z chart, where the density is ``lambda / |w|^2``.
    """
    if not (1e-5 <= eps <= 1e-2):
        raise ValueError(f"eps={eps} outside [1e-5, 1e-2]")
    if n < 256:
        raise ValueError(f"need at least 256 contour nodes, got {n}")
    kind, residue = _classify_singular(params, p)
    circle = eps * np.exp(2j * math.pi / n * np.arange(n))

    if kind == "infinity":
        others = [q for q, _, _ in singular_points(params) if q is not INFINITY]
        if any(abs(q) > 1.0 / (3.0 * eps) for q in others):
            raise QuadratureNearPole("a finite singular point crowds the contour at infinity")
        z = 1.0 / circle
        chart_scale = 1.0 / (eps * eps)
    else:
        center = complex(p)
        others = [
            q for q, _, _ in singular_points(params)
            if q is not INFINITY and abs(q - center) > 1e-9
        ]
        if any(abs(q - center) < 3.0 * eps for q in others):
            raise QuadratureNearPole(f"another singular point within 3*eps of {center}")
        z = center + circle
        chart_scale = 1.0

    s, _, density = _evaluate(params, z)
    rho = vertex_distance(params, p, z) if kind == "zero" else _distance_to_pole(s, residue)
    arc = np.sqrt(density) / np.sin(rho)
    return float(chart_scale * eps * 2.0 * math.pi / n * np.sum(arc))


# ---------------------------------------------------------------------------
# CSV grid export

def write_density_grid_csv(params: MetricParams, bounds, nx: int, ny: int, fh,
                           h: float = CURVATURE_STEP) -> None:
    """Write the re,im,phi,density,curvature grid as CSV to an open text file.

    Rows are emitted with x varying fastest, 17 significant digits
    throughout.  ``phi`` and ``density`` are nan within ``POLE_GUARD`` of a
    pole, and ``curvature`` is nan where its stencil touches a singular
    point.  Each grid row is evaluated as one numpy array and written before
    the next, so memory is bounded by ``nx``, not by ``nx * ny``.
    """
    x0, x1, y0, y1 = bounds
    xs = [x0 + (x1 - x0) * ix / (nx - 1) for ix in range(nx)]
    re_text = [f"{x:.17g}" for x in xs]
    z = np.empty(nx, dtype=complex)
    z.real = xs
    fh.write("re,im,phi,density,curvature\n")
    for iy in range(ny):
        y = y0 + (y1 - y0) * iy / (ny - 1)
        z.imag = y
        _, phi, den = _evaluate(params, z)
        cur = curvature_field(params, z, h)
        im = f"{y:.17g}"
        fh.writelines(
            f"{re},{im},{p:.17g},{d:.17g},{k:.17g}\n"
            for re, p, d, k in zip(re_text, phi.tolist(), den.tolist(), cur.tolist())
        )
