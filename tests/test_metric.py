import io
import math
import random

import numpy as np
import pytest

from conemetrics import forms, metric
from conemetrics.errors import (
    EvalAtPole,
    NotASingularPoint,
    QuadratureNearPole,
    StencilHitsSingularity,
)
from conemetrics.families import (
    AngleTriple,
    Branch,
    HeartParams,
    heart_metric,
    make_three_football,
    special_case_angles,
    three_football_metric,
)
from conemetrics.forms import INFINITY
from conemetrics.metric import (
    MetricParams,
    cone_angle_estimate,
    curvature_field,
    density_at,
    density_via_developing,
    developing_modulus,
    gauss_curvature_fd,
    phi_at,
    phi_gradient_check,
    write_density_grid_csv,
)


def heart_density_reference(beta, c, z):
    """Explicit modulus-power form of the heart density.

    Direct translation of the closed-form family: numerator exponents
    2(beta-1), 2(gamma-1) and the e^c |z-1|^{2 beta} |z+g/b|^{2 gamma}
    combination downstairs, evaluated with plain powers so it shares no
    arithmetic with the logistic route in density_at.
    """
    gamma = 1.0 - beta
    pole = gamma / beta
    num = (4.0 * math.exp(c) * abs(z - 1.0) ** (2.0 * (beta - 1.0))
           * abs(z + pole) ** (2.0 * (gamma - 1.0)) * abs(z) ** 2)
    den = (1.0 + math.exp(c) * abs(z - 1.0) ** (2.0 * beta)
           * abs(z + pole) ** (2.0 * gamma)) ** 2
    return num / den


def round_fixture():
    """Pullback of the round sphere under the Moebius map (z-1)/(z+1)."""
    return MetricParams(forms.make_form([(1.0, 1.0), (-1.0, -1.0)]), 0.0)


def sample_points(mp, count, seed, clearance=0.05, box=3.0):
    rng = random.Random(seed)
    singular = [q for q, _, _ in metric.singular_points(mp) if q is not INFINITY]
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - q) > clearance for q in singular):
            out.append(z)
    return out


SPECIAL = make_three_football(special_case_angles(), 0.3 + 0.2j, Branch.MINUS, 1.0)


# ---------------------------------------------------------------------------
# Phi

def test_phi_midpoint_value():
    mp = heart_metric(HeartParams(0.5, 0.0))
    # potential vanishes at the origin, so Phi = 4 e^0/(1+e^0) = 2
    assert phi_at(mp, 0.0) == pytest.approx(2.0, abs=1e-15)


def test_phi_frozen_value_at_i():
    mp = heart_metric(HeartParams(0.5, 0.0))
    assert phi_at(mp, 1j) == pytest.approx(8.0 / 3.0, rel=1e-14)


def test_phi_limits_near_poles():
    # Phi -> 0 approaching a positive-residue pole (|F| -> 0 there) and
    # Phi -> 4 approaching a negative-residue pole or the heart's infinity
    mp = heart_metric(HeartParams(0.5, 0.0))
    assert phi_at(mp, 1.0 + 1e-7) < 1e-3
    assert phi_at(mp, 1e6) > 4.0 - 1e-3

    mp3 = three_football_metric(SPECIAL)
    assert phi_at(mp3, SPECIAL.p_beta + 1e-7) > 4.0 - 1e-3


def test_phi_range_sampled():
    for mp in (heart_metric(HeartParams(0.35, 0.7)), three_football_metric(SPECIAL)):
        for z in sample_points(mp, 200, seed=2):
            assert 0.0 < phi_at(mp, z) < 4.0


def test_phi_overflow_safe():
    mp = heart_metric(HeartParams(0.5, 800.0))
    value = phi_at(mp, 0.3 + 0.1j)
    assert 0.0 < value <= 4.0


# ---------------------------------------------------------------------------
# density

def test_density_frozen_value_at_i():
    mp = heart_metric(HeartParams(0.5, 0.0))
    assert density_at(mp, 1j) == pytest.approx(2.0 / 9.0, rel=1e-14)
    assert density_via_developing(mp, 1j) == pytest.approx(2.0 / 9.0, rel=1e-14)


def test_density_vanishes_at_character_zero():
    mp = heart_metric(HeartParams(0.5, 0.0))
    assert density_at(mp, 0.0) == 0.0


@pytest.mark.parametrize("beta,c", [(0.6, 0.0), (0.3, -1.0), (0.5, 0.7)])
def test_density_matches_closed_form(beta, c):
    mp = heart_metric(HeartParams(beta, c))
    for z in sample_points(mp, 100, seed=8):
        a = density_at(mp, z)
        b = heart_density_reference(beta, c, z)
        assert abs(a - b) <= 1e-10 * max(a, b)


def test_density_equals_developing_route_both_families():
    for mp in (heart_metric(HeartParams(0.6, 0.3)), three_football_metric(SPECIAL)):
        for z in sample_points(mp, 300, seed=21):
            a = density_at(mp, z)
            b = density_via_developing(mp, z)
            assert abs(a - b) <= 1e-12 * max(a, b)


def test_density_guard_near_pole():
    mp = heart_metric(HeartParams(0.5, 0.0))
    with pytest.raises(EvalAtPole):
        density_at(mp, 1.0 + 1e-13)
    with pytest.raises(EvalAtPole):
        density_via_developing(mp, -1.0 + 1e-13 * 1j)


# ---------------------------------------------------------------------------
# developing modulus

def test_developing_modulus_heart_values():
    hp = HeartParams(0.5, 0.0)
    mp = heart_metric(hp)
    assert developing_modulus(mp, 1.0) == 0.0
    assert developing_modulus(mp, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert developing_modulus(mp, INFINITY) == math.inf


def test_developing_modulus_negative_residue_pole():
    mp3 = three_football_metric(SPECIAL)
    assert developing_modulus(mp3, SPECIAL.p_beta) == math.inf
    assert developing_modulus(mp3, SPECIAL.p_alpha) == 0.0


def test_developing_modulus_balanced_form_at_infinity():
    mp = round_fixture()
    assert developing_modulus(mp, INFINITY) == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# curvature

def test_curvature_round_fixture():
    mp = round_fixture()
    assert gauss_curvature_fd(mp, 0.3, 1e-4) == pytest.approx(1.0, abs=1e-6)
    assert gauss_curvature_fd(mp, -0.2 + 0.9j, 1e-4) == pytest.approx(1.0, abs=1e-6)


def test_curvature_explicit_round_density_stencil():
    # the same 5-point stencil applied to the textbook density 4/(1+|z|^2)^2
    def log_lambda(z):
        return 0.5 * math.log(4.0 / (1.0 + abs(z) ** 2) ** 2)

    z, h = 0.3 + 0.0j, 1e-4
    lap = (log_lambda(z + h) + log_lambda(z - h) + log_lambda(z + 1j * h)
           + log_lambda(z - 1j * h) - 4.0 * log_lambda(z)) / h**2
    kappa = -lap / (4.0 / (1.0 + abs(z) ** 2) ** 2)
    assert kappa == pytest.approx(1.0, abs=1e-6)


def test_curvature_heart():
    mp = heart_metric(HeartParams(0.6, 0.0))
    assert gauss_curvature_fd(mp, 0.4 + 0.7j, 1e-4) == pytest.approx(1.0, abs=5e-3)


def test_curvature_three_football():
    mp = three_football_metric(SPECIAL)
    assert gauss_curvature_fd(mp, 0.45 + 0.9j, 1e-4) == pytest.approx(1.0, abs=5e-3)


def test_curvature_where_density_is_tiny():
    # lambda^2 ~ 1e-5 next to the fixture's 4 pi cone, and ~ 1e-14 at a
    # generic football whose residues nearly cancel (|f| ~ 5e-4, s ~ 18):
    # differencing log lambda, or even g after rounding s, misses K = 1 here
    generic = make_three_football(AngleTriple(1.02995, 0.757849, 0.821805),
                                  complex(-1.32657, -1.41649), Branch.MINUS, 1.38803)
    for mp, z in ((three_football_metric(SPECIAL), 1.2),
                  (three_football_metric(generic), 1.2),
                  (three_football_metric(generic), 0.2)):
        assert density_at(mp, z) < 1e-4
        assert gauss_curvature_fd(mp, z) == pytest.approx(1.0, abs=5e-3)


def test_curvature_field_matches_pointwise_stencil():
    mp = heart_metric(HeartParams(0.5, 0.0))
    # the last point's stencil lands on the pole at 1, the one before on the zero
    z = np.array([[0.4 + 0.7j, -2.0 - 1.0j], [1e-4 + 0.0j, 1.0 + 1e-4j]])
    kappa = curvature_field(mp, z)
    assert kappa.shape == z.shape
    assert np.isnan(kappa[1]).all()
    for zz, k in zip(z[0], kappa[0]):
        assert k == pytest.approx(gauss_curvature_fd(mp, zz), rel=1e-12)
        assert k == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        curvature_field(mp, z, 0.1)


def test_curvature_stencil_guard():
    mp = heart_metric(HeartParams(0.5, 0.0))
    # one stencil arm lands exactly on the pole at 1
    with pytest.raises(StencilHitsSingularity):
        gauss_curvature_fd(mp, 1.0 + 1e-4, 1e-4)
    # one arm lands on the character zero, where the log-density diverges
    with pytest.raises(StencilHitsSingularity):
        gauss_curvature_fd(mp, 1e-4 + 0.0j, 1e-4)
    with pytest.raises(ValueError):
        gauss_curvature_fd(mp, 0.5j, 1.0)


# ---------------------------------------------------------------------------
# cone angles

def _football_cone_angles(tf):
    a = tf.angles
    mp = three_football_metric(tf)
    return mp, [(tf.p_beta, a.beta), (tf.p_alpha, a.alpha + a.beta), (tf.p_gamma, a.gamma),
                (0.0, 2.0), (1.0, 2.0), (INFINITY, a.alpha + a.gamma)]


def _heart_cone_angles(beta):
    hp = HeartParams(beta, 0.0)
    return heart_metric(hp), [(1.0, hp.beta), (complex(-hp.gamma / hp.beta, 0.0), hp.gamma),
                              (0.0, 2.0), (INFINITY, 1.0)]


@pytest.mark.parametrize("case", [
    pytest.param(lambda: _heart_cone_angles(0.6), id="heart-0.6"),
    # the pole at 1 has k = 0.1, and |F| > 1 on its contour
    pytest.param(lambda: _heart_cone_angles(0.1), id="heart-0.1"),
    pytest.param(lambda: _football_cone_angles(SPECIAL), id="special-0.3+0.2i"),
    # P_alpha sits at |z| ~ 133, so the contour at infinity nearly meets it
    pytest.param(lambda: _football_cone_angles(make_three_football(
        AngleTriple(1.02995, 0.757849, 0.821805), complex(-1.32657, -1.41649),
        Branch.MINUS, 1.38803)), id="football-pole-near-infinity"),
])
def test_cone_angles_heart(case):
    mp, points = case()
    for p, k in points:
        expected = 2.0 * math.pi * k
        est = cone_angle_estimate(mp, p, eps=1e-3, n=512)
        assert abs(est - expected) <= 0.01 * expected, (p, est, expected)


def test_singular_points_returns_a_fresh_list():
    mp = heart_metric(HeartParams(0.5, 0.0))
    marked = metric.singular_points(mp)
    expected = list(marked)
    assert [kind for _, kind, _ in expected] == ["pole", "pole", "zero", "infinity"]
    marked.clear()
    assert metric.singular_points(mp) == expected
    assert cone_angle_estimate(mp, 0.0) == pytest.approx(4.0 * math.pi, rel=1e-2)


def test_cone_angle_rejects_regular_point():
    mp = heart_metric(HeartParams(0.5, 0.0))
    with pytest.raises(NotASingularPoint):
        cone_angle_estimate(mp, 0.5 + 0.5j)


def test_cone_angle_rejects_crowded_contour():
    # beta near 1 drags the gamma-pole within 3 eps of the character zero
    mp = heart_metric(HeartParams(0.99, 0.0))
    with pytest.raises(QuadratureNearPole):
        cone_angle_estimate(mp, 0.0, eps=1e-2, n=512)


def test_cone_angle_validates_arguments():
    mp = heart_metric(HeartParams(0.5, 0.0))
    with pytest.raises(ValueError):
        cone_angle_estimate(mp, 1.0, eps=0.5)
    with pytest.raises(ValueError):
        cone_angle_estimate(mp, 1.0, n=16)


# ---------------------------------------------------------------------------
# the gradient identity for Phi

def test_phi_gradient_identity_heart():
    mp = heart_metric(HeartParams(0.6, 0.0))
    assert phi_gradient_check(mp, 2.0 + 1.0j, 1e-5) < 1e-6


def test_phi_gradient_identity_three_football():
    mp = three_football_metric(SPECIAL)
    for z in sample_points(mp, 25, seed=31):
        assert phi_gradient_check(mp, z) < 1e-6


def test_phi_gradient_identity_is_c_independent():
    # the defining relation holds for every member of the c-family
    for c in (0.0, 1.0, -2.5):
        mp = heart_metric(HeartParams(0.6, c))
        assert phi_gradient_check(mp, 2.0 + 1.0j, 1e-5) < 1e-6


# ---------------------------------------------------------------------------
# CSV export

def test_csv_grid_structure_and_nan():
    mp = heart_metric(HeartParams(0.5, 0.0))
    buf = io.StringIO()
    # a grid whose corner lands exactly on the pole at z = 1
    write_density_grid_csv(mp, (1.0, 2.0, 0.0, 1.0), 2, 2, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "re,im,phi,density,curvature"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[2] == "nan" and first[3] == "nan" and first[4] == "nan"
    # a regular cell carries finite 17-digit values
    far = lines[4].split(",")
    assert float(far[3]) > 0.0
    assert abs(float(far[4]) - 1.0) < 5e-3


def test_csv_grid_deterministic():
    mp = heart_metric(HeartParams(0.6, 0.3))
    out = []
    for _ in range(2):
        buf = io.StringIO()
        write_density_grid_csv(mp, (-2.0, 2.0, -2.0, 2.0), 5, 4, buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]


def test_csv_values_round_trip_density():
    # the CSV carries the row kernel's values exactly; the kernel agrees with
    # the scalar density_at only to rounding (test_csv_matches_scalar_path)
    mp = heart_metric(HeartParams(0.6, 0.0))
    buf = io.StringIO()
    write_density_grid_csv(mp, (0.2, 0.4, 0.2, 0.4), 2, 2, buf)
    rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:3]]
    row_z = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    _, phi, den = metric._evaluate(mp, row_z)
    for r, p, d in zip(rows, phi.tolist(), den.tolist()):
        assert float(r[2]) == p
        assert float(r[3]) == d


def _scalar_rows(mp, bounds, nx, ny):
    """The grid evaluated one point at a time through the scalar API."""
    x0, x1, y0, y1 = bounds
    out = []
    for iy in range(ny):
        y = y0 + (y1 - y0) * iy / (ny - 1)
        for ix in range(nx):
            x = x0 + (x1 - x0) * ix / (nx - 1)
            z = complex(x, y)
            try:
                phi, den = phi_at(mp, z), density_at(mp, z)
            except EvalAtPole:
                phi = den = math.nan
            try:
                cur = gauss_curvature_fd(mp, z)
            except StencilHitsSingularity:
                cur = math.nan
            out.append((f"{x:.17g}", f"{y:.17g}", z, phi, den, cur))
    return out


@pytest.mark.parametrize("mp", [
    heart_metric(HeartParams(0.5, 0.0)),
    heart_metric(HeartParams(0.15, 0.0)),
    three_football_metric(SPECIAL),
], ids=["heart-0.5", "heart-0.15", "special"])
def test_csv_matches_scalar_path(mp):
    bounds, n = (-3.0, 3.0, -3.0, 3.0), 41
    buf = io.StringIO()
    write_density_grid_csv(mp, bounds, n, n, buf)
    rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
    reference = _scalar_rows(mp, bounds, n, n)
    assert len(rows) == len(reference) == n * n
    singular = [q for q, _, _ in metric.singular_points(mp) if q is not INFINITY]
    for row, (re, im, z, phi, den, cur) in zip(rows, reference):
        assert (row[0], row[1]) == (re, im)
        got_phi, got_den, got_cur = (float(v) for v in row[2:])
        assert math.isnan(got_phi) == math.isnan(phi)
        assert math.isnan(got_den) == math.isnan(den)
        assert math.isnan(got_cur) == math.isnan(cur)
        if math.isnan(phi):
            continue
        # lambda^2 is a bell factor times |f|^2, and f is a sum that may
        # cancel: bound the difference by the size of the summands
        t = math.exp(-abs(metric.log_scale_at(mp, z)))
        bell = 4.0 * t / (1.0 + t) ** 2
        terms = math.fsum(abs(p.residue / (z - p.position)) for p in mp.form.poles)
        assert abs(got_den - den) <= 1e-14 * bell * terms * terms
        assert abs(got_phi - phi) <= 1e-14 * phi
        if min(abs(z - q) for q in singular) >= 0.1:
            assert abs(got_cur - 1.0) <= 5e-3
