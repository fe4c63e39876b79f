import io
import math
import os
import random
import types

import mpmath
import numpy as np
import pytest

from oracles import density_at, five_point_usable, log_scale_at, phi_at

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
    developing_modulus,
    write_density_grid_csv,
)


def heart_density_reference(beta, c, z):
    """Explicit modulus-power form of the heart density.

    Direct translation of the closed-form family: numerator exponents
    2(beta-1), 2(gamma-1) and the e^c |z-1|^{2 beta} |z+g/b|^{2 gamma}
    combination downstairs, evaluated with plain powers so it shares no
    arithmetic with the kernel's logistic route.
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
    singular = [m.position for m in mp.marked if m.kind != "infinity"]
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - q) > clearance for q in singular):
            out.append(z)
    return out


SPECIAL = make_three_football(special_case_angles(), 0.3 + 0.2j, Branch.MINUS, 1.0)


def kernel(mp, z, guard=forms.POLE_GUARD):
    """``(s, phi, density)`` of the kernel at the point z, as floats."""
    return tuple(float(v[0]) for v in metric._evaluate(mp, np.array([z], dtype=complex), guard))


def phi(mp, z):
    return kernel(mp, z)[1]


def density(mp, z):
    return kernel(mp, z)[2]


def curvature(mp, z, h=metric.CURVATURE_STEP):
    """K at the point z from the stencil of ``curvature_field``: nan where the
    stencil touches a singular point."""
    return float(curvature_field(mp, np.array([z], dtype=complex), h)[0])


def phi_gradient_residual(mp, z, h=1e-5):
    return float(metric._phi_gradient_residuals(mp, np.array([z], dtype=complex), h)[0])


# ---------------------------------------------------------------------------
# Phi

def test_phi_midpoint_value():
    mp = heart_metric(HeartParams(0.5, 0.0))
    # potential vanishes at the origin, so Phi = 4 e^0/(1+e^0) = 2
    assert phi(mp, 0.0) == pytest.approx(2.0, abs=1e-15)


def test_phi_frozen_value_at_i():
    mp = heart_metric(HeartParams(0.5, 0.0))
    assert phi(mp, 1j) == pytest.approx(8.0 / 3.0, rel=1e-14)


def test_phi_limits_near_poles():
    # Phi -> 0 approaching a positive-residue pole (|F| -> 0 there) and
    # Phi -> 4 approaching a negative-residue pole or the heart's infinity
    mp = heart_metric(HeartParams(0.5, 0.0))
    assert phi(mp, 1.0 + 1e-7) < 1e-3
    assert phi(mp, 1e6) > 4.0 - 1e-3

    mp3 = three_football_metric(SPECIAL)
    assert phi(mp3, SPECIAL.p_beta + 1e-7) > 4.0 - 1e-3


def test_phi_range_sampled():
    for mp in (heart_metric(HeartParams(0.35, 0.7)), three_football_metric(SPECIAL)):
        _, values, _ = metric._evaluate(mp, np.array(sample_points(mp, 200, seed=2)))
        assert np.all((0.0 < values) & (values < 4.0))


def test_phi_overflow_safe():
    mp = heart_metric(HeartParams(0.5, 800.0))
    value = phi(mp, 0.3 + 0.1j)
    assert 0.0 < value <= 4.0


# ---------------------------------------------------------------------------
# density

def test_density_frozen_value_at_i():
    mp = heart_metric(HeartParams(0.5, 0.0))
    assert density(mp, 1j) == pytest.approx(2.0 / 9.0, rel=1e-14)
    developed = metric._developing_density(mp, np.array([1j]))
    assert float(developed[0]) == pytest.approx(2.0 / 9.0, rel=1e-14)


def test_density_vanishes_at_character_zero():
    mp = heart_metric(HeartParams(0.5, 0.0))
    assert density(mp, 0.0) == 0.0


@pytest.mark.parametrize("beta,c", [(0.6, 0.0), (0.3, -1.0), (0.5, 0.7)])
def test_density_matches_closed_form(beta, c):
    mp = heart_metric(HeartParams(beta, c))
    points = sample_points(mp, 100, seed=8)
    _, _, values = metric._evaluate(mp, np.array(points))
    for z, a in zip(points, values.tolist()):
        b = heart_density_reference(beta, c, z)
        assert abs(a - b) <= 1e-10 * max(a, b)


def test_density_equals_developing_route_both_families():
    for mp in (heart_metric(HeartParams(0.6, 0.3)), three_football_metric(SPECIAL)):
        z = np.array(sample_points(mp, 300, seed=21))
        _, _, a = metric._evaluate(mp, z)
        b = metric._developing_density(mp, z)
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(a, b))


def test_density_guard_near_pole():
    # nan within POLE_GUARD of a pole; with guard=0.0 (plot's log|F|) only
    # on the pole itself
    mp = heart_metric(HeartParams(0.5, 0.0))
    for z in (1.0 + 1e-13, -1.0 + 1e-13 * 1j):
        assert all(math.isnan(v) for v in kernel(mp, z))
        s, _, _ = kernel(mp, z, guard=0.0)
        assert math.isfinite(s)
        assert s == pytest.approx(math.log(2e-13), abs=1e-2)
    assert all(math.isnan(v) for v in kernel(mp, 1.0, guard=0.0))


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
    assert curvature(mp, 0.3, 1e-4) == pytest.approx(1.0, abs=1e-6)
    assert curvature(mp, -0.2 + 0.9j, 1e-4) == pytest.approx(1.0, abs=1e-6)


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
    assert curvature(mp, 0.4 + 0.7j, 1e-4) == pytest.approx(1.0, abs=5e-3)


def test_curvature_three_football():
    mp = three_football_metric(SPECIAL)
    assert curvature(mp, 0.45 + 0.9j, 1e-4) == pytest.approx(1.0, abs=5e-3)


def test_curvature_where_density_is_tiny():
    # lambda^2 ~ 1e-5 next to the fixture's 4 pi cone, and ~ 1e-14 at a
    # generic football whose residues nearly cancel (|f| ~ 5e-4, s ~ 18):
    # differencing log lambda, or even g after rounding s, misses K = 1 here
    generic = make_three_football(AngleTriple(1.02995, 0.757849, 0.821805),
                                  complex(-1.32657, -1.41649), Branch.MINUS, 1.38803)
    for mp, z in ((three_football_metric(SPECIAL), 1.2),
                  (three_football_metric(generic), 1.2),
                  (three_football_metric(generic), 0.2)):
        assert density(mp, z) < 1e-4
        assert curvature(mp, z) == pytest.approx(1.0, abs=5e-3)


def test_curvature_field_matches_pointwise_stencil():
    mp = heart_metric(HeartParams(0.5, 0.0))
    # the last point's stencil lands on the pole at 1, the one before on the zero
    h = metric.CURVATURE_STEP
    z = np.array([[0.4 + 0.7j, -2.0 - 1.0j], [h + 0.0j, 1.0 + 1j * h]])
    kappa = curvature_field(mp, z)
    assert kappa.shape == z.shape
    assert np.isnan(kappa[1]).all()
    for zz, k in zip(z[0], kappa[0]):
        assert k == pytest.approx(curvature(mp, zz), rel=1e-12)
        assert k == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        curvature_field(mp, z, 0.1)


def test_curvature_truncation_scales_as_h_squared_where_the_density_is_tiny():
    # residues that nearly cancel: lambda^2 ~ 1e-15 and |f| a few 1e-6 at these
    # cells, where the stencil's first-order terms are 9 orders above its
    # O(h^2 lambda^2) signal; K - 1 must be the stencil's own h^2 term
    tf = make_three_football(
        AngleTriple(0.06293631690050941, 0.1023944798902496, 0.1029593015661615),
        complex(-2.0490984497023925, 0.7996405131514738), Branch.MINUS, 0.0021141979852889285)
    mp = three_football_metric(tf)
    for z in (0.6, 0.8):
        assert density(mp, z) < 1e-14
        coarse, fine = curvature(mp, z, 1e-4) - 1.0, curvature(mp, z, 1e-5) - 1.0
        assert coarse / fine == pytest.approx(100.0, rel=1e-2), (z, coarse, fine)
        assert abs(coarse) < 5e-3


def centred_grid(centre, half, n=41):
    """The n x n grid of half-width ``half`` centred on ``centre``."""
    t = np.linspace(-half, half, n)
    return complex(centre) + t[None, :] + 1j * t[:, None]


def assert_five_point_curvature(mp, z, h):
    # the kernel's bits at the centres do not depend on the stack around them,
    # and the arm screen keeps every nan of the five-point test and adds none
    usable, s, den = five_point_usable(mp, z, h)
    expected = metric._curvature(mp, z, s, np.where(usable, den, np.nan), h)
    kappa = curvature_field(mp, z, h)
    assert np.array_equal(np.isnan(kappa), ~usable)
    assert np.array_equal(kappa, expected, equal_nan=True)


SCREEN_METRICS = [
    heart_metric(HeartParams(0.5, 0.0)),
    heart_metric(HeartParams(0.15, 0.4)),
    three_football_metric(SPECIAL),
    three_football_metric(make_three_football(AngleTriple(0.7, 0.45, 0.6), 0.4 + 0.3j,
                                              Branch.PLUS, 1.3)),
]


@pytest.mark.parametrize("h", [1e-6, 1e-5, 1e-2])
@pytest.mark.parametrize("mp", SCREEN_METRICS,
                         ids=["heart-0.5", "heart-0.15-c0.4", "special", "generic"])
def test_curvature_screen_keeps_the_five_point_test_at_the_marks(mp, h):
    # half-widths of 3 h, inside the screen, and 20 h, where the grid step is h
    # and arms land on nodes next to the mark
    for mark in mp.marked:
        if mark.kind != "infinity":
            for half in (3.0 * h, 20.0 * h):
                assert_five_point_curvature(mp, centred_grid(mark.position, half), h)


@pytest.mark.parametrize("h", [1e-6, 1e-5, 1e-2])
@pytest.mark.parametrize("c", [300.0, -300.0, 460.0, 700.0, -700.0, 742.0, 745.0, -745.0])
def test_curvature_screen_keeps_the_five_point_test_where_the_density_underflows(c, h):
    # at c = 460 the density crosses ARM_SCREEN_DENSITY inside the box, at
    # c = +-700 it is below it everywhere, and from |c| = 742 it crosses the
    # smallest subnormal: there an arm's density is 0 next to a positive centre
    mp = heart_metric(HeartParams(0.5, c))
    assert_five_point_curvature(mp, centred_grid(0.0, 3.0), h)


def test_curvature_stencil_guard():
    mp = heart_metric(HeartParams(0.5, 0.0))
    # one stencil arm lands exactly on the pole at 1
    assert math.isnan(curvature(mp, 1.0 + 1e-4, 1e-4))
    # one arm lands on the character zero, where the log-density diverges
    assert math.isnan(curvature(mp, 1e-4 + 0.0j, 1e-4))
    with pytest.raises(ValueError):
        curvature(mp, 0.5j, 1.0)


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


CONE_CASES = [
    pytest.param(lambda: _heart_cone_angles(0.6), id="heart-0.6"),
    # the pole at 1 has k = 0.1, and |F| > 1 on its contour
    pytest.param(lambda: _heart_cone_angles(0.1), id="heart-0.1"),
    pytest.param(lambda: _football_cone_angles(SPECIAL), id="special-0.3+0.2i"),
    # P_alpha sits at |z| ~ 133, so the contour at infinity nearly meets it
    pytest.param(lambda: _football_cone_angles(make_three_football(
        AngleTriple(1.02995, 0.757849, 0.821805), complex(-1.32657, -1.41649),
        Branch.MINUS, 1.38803)), id="football-pole-near-infinity"),
]


@pytest.mark.parametrize("case", CONE_CASES)
def test_cone_angles_heart(case):
    mp, points = case()
    for p, k in points:
        expected = 2.0 * math.pi * k
        est = cone_angle_estimate(mp, p, eps=1e-3, n=512)
        assert abs(est - expected) <= 0.01 * expected, (p, est, expected)


@pytest.mark.parametrize("case", CONE_CASES)
def test_stacked_cone_contours_give_the_one_point_estimates(case):
    # all contours in one kernel call, each with its own eps, give every
    # estimate to the bit
    mp, points = case()
    contours = [(p, eps) for (p, _), eps in zip(points, (1e-3, 2e-4, 1e-5, 1e-3, 5e-4, 3e-5))]
    stacked = metric._cone_angle_estimates(mp, [(mp.mark_at(p), eps) for p, eps in contours],
                                           n=512)
    assert stacked == [cone_angle_estimate(mp, p, eps=eps, n=512) for p, eps in contours]


def test_zero_mark_distances_keep_their_digits():
    # at a zero a, L = sum_k r_k log1p((z - a) / (a - p_k)) is second order in
    # z - a while each term is first order.  On the zero contours of a config
    # with |F(a)| ~ 5.4e4, rho is 3e-14 to 7e-14; each distance matches 50-digit
    # mpmath from the same float z, a and p_k to 2.2e-10 relative (the terms'
    # rounding, relative to L) at every fourth node.  numpy's complex log1p
    # gave 5.1e-7
    tf = make_three_football(AngleTriple(1.1540720102069653, 0.5703196331778746,
                                         0.5601789631272324),
                             complex(-0.2547391929220373, -1.0149269795084517), Branch.MINUS,
                             1.57006035055644)
    mp = three_football_metric(tf)
    zeros = [m for m in mp.marked if m.kind == "zero"]
    assert len(zeros) == 2
    n = 512
    with mpmath.workdps(50):
        for mark in zeros:
            a = mark.position
            eps = max(1e-5, min(1e-3, mark.clearance / 20.0))  # verify's contour
            z = a + eps * np.exp(2j * math.pi / n * np.arange(n))
            rho = metric._vertex_distance(mp, mark, a, z)
            m = mpmath.exp(mpmath.mpf(mp.c_log) / 2) * mpmath.fprod(
                abs(mpmath.mpc(a) - p.position) ** p.residue for p in mp.form.poles)
            for zi, got in zip(z[::4], rho[::4]):
                L = mpmath.fsum(p.residue * mpmath.log1p((mpmath.mpc(zi) - a) / (a - p.position))
                                for p in mp.form.poles)
                exact = 2 * mpmath.atan(m * abs(mpmath.expm1(L)) / abs(1 + m * m * mpmath.exp(L)))
                assert abs(got - exact) <= 1e-9 * exact, (a, zi)


def _football_marks(angles, clearances):
    """The expected records of a three-football metric: (kind, residue, coefficient,
    pole index, clearance) of P_beta, P_alpha, P_gamma, the zeros at 0 and 1, INFINITY."""
    a = angles
    rows = [("pole", -a.beta, a.beta, 0), ("pole", a.alpha + a.beta, a.alpha + a.beta, 1),
            ("pole", a.gamma, a.gamma, 2), ("zero", 0.0, 2.0, -1), ("zero", 0.0, 2.0, -1),
            ("infinity", -(a.alpha + a.gamma), a.alpha + a.gamma, -1)]
    return [row + (d,) for row, d in zip(rows, clearances)]


#: the crowded-poles configuration of the CLI tests: two poles 2.3e-3 apart,
#: the third at |z| ~ 887
CROWDED_ANGLES = AngleTriple(0.7245642810191482, 0.42651681363642596, 0.42424003566607277)
CROWDED = make_three_football(CROWDED_ANGLES, complex(1.1960650911833999, -0.5356159447174936),
                              Branch.MINUS, 3.4310515156189765)

MARK_CASES = [
    pytest.param(lambda: heart_metric(HeartParams(0.5, 0.0)),
                 [("pole", 0.5, 0.5, 0, 1.0), ("pole", 0.5, 0.5, 1, 1.0),
                  ("zero", 0.0, 2.0, -1, 1.0), ("infinity", -1.0, 1.0, -1, 1.0)],
                 id="heart-0.5"),
    pytest.param(lambda: three_football_metric(SPECIAL),
                 _football_marks(special_case_angles(), (
                     0.08078232063650512, 5.299656884046316, 0.08078232063650512,
                     0.2893761767298585, 0.7280109889280522, 0.18869146095293904)),
                 id="special-0.3+0.2i"),
    pytest.param(lambda: three_football_metric(CROWDED),
                 _football_marks(CROWDED_ANGLES, (
                     0.0022732905956029583, 885.639820751023, 0.0022732905956029583,
                     0.9999999999999701, 0.5681627319167208, 0.001127504393054986)),
                 id="crowded-poles"),
]


@pytest.mark.parametrize("build,expected", MARK_CASES)
def test_marked_points_carry_their_cone_data(build, expected):
    mp = build()
    assert len(mp.marked) == len(expected)
    for mark, (kind, residue, coefficient, pole, clearance) in zip(mp.marked, expected):
        assert (mark.kind, mark.pole) == (kind, pole)
        assert mark.residue == pytest.approx(residue, abs=1e-15)
        assert mark.coefficient == pytest.approx(coefficient, abs=1e-15)
        assert mark.clearance == pytest.approx(clearance, rel=1e-12)
        if kind == "pole":
            assert mp.form.poles[pole].position == mark.position
            assert mp.form.poles[pole].residue == mark.residue
    assert mp.marked[-1].position is INFINITY
    assert mp.marked[-1].residue == forms.residue_at_infinity(mp.form)
    assert mp.marked is mp.marked  # built once per metric


@pytest.mark.parametrize("build,expected", MARK_CASES)
def test_clearance_is_the_nearest_distance(build, expected):
    # brute force over every pair of finite marks, in the w = 1/z chart at infinity
    mp = build()
    finite = [m.position for m in mp.marked if m.position is not INFINITY]
    for i, mark in enumerate(mp.marked):
        if mark.position is INFINITY:
            assert mark.clearance == min(1.0 / abs(q) if q else math.inf for q in finite)
        else:
            assert mark.clearance == min(abs(q - mark.position)
                                         for j, q in enumerate(finite) if j != i)


def test_mark_at_keeps_the_matching_rules():
    mp = heart_metric(HeartParams(0.5, 0.0))
    pole, _, zero, infinity = mp.marked
    # a pole within 1e-9, a zero within 1e-7
    assert mp.mark_at(1.0 + 0.99e-9j) is pole
    assert mp.mark_at(0.99e-7j) is zero
    assert mp.mark_at(0.0) is zero
    assert mp.mark_at(INFINITY) is infinity
    for p in (1.0 + 1.01e-9j, 1.01e-7j, 0.5 + 0.5j):
        with pytest.raises(NotASingularPoint):
            mp.mark_at(p)
    # residues that sum to 0 leave infinity a regular point
    round_sphere = round_fixture()
    assert [m.kind for m in round_sphere.marked] == ["pole", "pole"]
    with pytest.raises(NotASingularPoint, match="infinity is a regular point"):
        round_sphere.mark_at(INFINITY)


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
    assert phi_gradient_residual(mp, 2.0 + 1.0j, 1e-5) < 1e-6


def test_phi_gradient_identity_three_football():
    mp = three_football_metric(SPECIAL)
    residuals = metric._phi_gradient_residuals(mp, np.array(sample_points(mp, 25, seed=31)))
    assert np.all(residuals < 1e-6)


def test_phi_gradient_identity_is_c_independent():
    # the defining relation holds for every member of the c-family
    for c in (0.0, 1.0, -2.5):
        mp = heart_metric(HeartParams(0.6, c))
        assert phi_gradient_residual(mp, 2.0 + 1.0j, 1e-5) < 1e-6


def test_phi_gradient_stencil_guard():
    mp = heart_metric(HeartParams(0.5, 0.0))
    with pytest.raises(StencilHitsSingularity):
        phi_gradient_residual(mp, 1.0 + 1e-5, 1e-5)


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
    # the scalar oracle density_at only to rounding (test_csv_matches_scalar_path)
    mp = heart_metric(HeartParams(0.6, 0.0))
    buf = io.StringIO()
    write_density_grid_csv(mp, (0.2, 0.4, 0.2, 0.4), 2, 2, buf)
    rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:3]]
    row_z = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    _, phi, den = metric._evaluate(mp, row_z)
    for r, p, d in zip(rows, phi.tolist(), den.tolist()):
        assert float(r[2]) == p
        assert float(r[3]) == d


def rowwise_csv(params, bounds, nx, ny, h=metric.CURVATURE_STEP):
    """The grid written one row at a time, one f-string per value: the writer
    that the block writer replaced, kept as its byte-for-byte oracle."""
    x0, x1, y0, y1 = bounds
    xs = [x0 + (x1 - x0) * ix / (nx - 1) for ix in range(nx)]
    re_text = [f"{x:.17g}" for x in xs]
    z = np.empty(nx, dtype=complex)
    z.real = xs
    out = ["re,im,phi,density,curvature\n"]
    for iy in range(ny):
        y = y0 + (y1 - y0) * iy / (ny - 1)
        z.imag = y
        _, phi, den = metric._evaluate(params, z)
        cur = curvature_field(params, z, h)
        im = f"{y:.17g}"
        out += [f"{re},{im},{p:.17g},{d:.17g},{k:.17g}\n"
                for re, p, d, k in zip(re_text, phi.tolist(), den.tolist(), cur.tolist())]
    return "".join(out)


CSV_METRICS = [
    heart_metric(HeartParams(0.5, 0.0)),
    heart_metric(HeartParams(0.15, 0.4)),
    three_football_metric(SPECIAL),
    three_football_metric(make_three_football(AngleTriple(0.7, 0.45, 0.6), 0.4 + 0.3j,
                                              Branch.PLUS, 1.3)),
]
CSV_METRIC_IDS = ["heart-0.5", "heart-0.15-c0.4", "special", "generic"]


def block_csv(params, bounds, nx, ny):
    buf = io.StringIO()
    write_density_grid_csv(params, bounds, nx, ny, buf)
    return buf.getvalue()


def assert_same_lines(got, expected):
    # line lists, so that a failure names the first differing line instead of
    # diffing two multi-megabyte strings
    assert got.splitlines(keepends=True) == expected.splitlines(keepends=True)


@pytest.mark.parametrize("mp", CSV_METRICS, ids=CSV_METRIC_IDS)
@pytest.mark.parametrize("bounds,nx,ny", [
    ((-3.0, 3.0, -3.0, 3.0), 201, 201),
    ((-3.0, 3.0, -3.0, 3.0), 41, 41),
    ((-2.0, 2.0, -2.0, 2.0), 5, 4),
    ((1.0, 2.0, 0.0, 1.0), 2, 2),
    ((-3.0, 3.0, -3.0, 3.0), 1500, 3),  # a row longer than a block
    ((-3.0, 3.0, -2.5, 2.5), 7, 300),  # ny not a multiple of the block's rows
], ids=["201x201", "41x41", "5x4", "2x2", "1500x3", "7x300"])
def test_csv_block_writer_matches_the_row_writer(mp, bounds, nx, ny):
    assert_same_lines(block_csv(mp, bounds, nx, ny), rowwise_csv(mp, bounds, nx, ny))


@pytest.mark.parametrize("mp", CSV_METRICS, ids=CSV_METRIC_IDS)
def test_csv_block_writer_on_poles_and_zeros(mp):
    # a node on z = 0, a zero of both families: density 0 up to the rounding
    # of f's cancelling sum
    bounds = (-2.0, 2.0, -2.0, 2.0)
    text = block_csv(mp, bounds, 9, 7)
    assert_same_lines(text, rowwise_csv(mp, bounds, 9, 7))
    origin = [row for row in text.split("\n") if row.startswith("0,0,")]
    assert float(origin[0].split(",")[3]) < 1e-30
    # a node within rounding of each pole: phi, density and curvature are nan
    for p in mp.form.poles:
        x, y = p.position.real, p.position.imag
        bounds = (x - 2.0, x + 2.0, y - 1.0, y + 2.0)
        text = block_csv(mp, bounds, 9, 7)
        assert_same_lines(text, rowwise_csv(mp, bounds, 9, 7))
        assert ",nan,nan,nan\n" in text


def set_cpus(monkeypatch, n):
    """Make the CSV writer see n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_forks(monkeypatch):
    """The list that each ``os.fork`` of the CSV writer appends its child's pid to."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("bounds,nx,ny", [
    ((-3.0, 3.0, -3.0, 3.0), 201, 201),
    ((-3.0, 3.0, -3.0, 3.0), 1500, 3),  # a row longer than a block
    ((-3.0, 3.0, -2.5, 2.5), 7, 300),  # ny not a multiple of the block's rows
], ids=["201x201", "1500x3", "7x300"])
def test_csv_parts_match_the_row_writer(monkeypatch, cpus, bounds, nx, ny):
    set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(metric, "CSV_PART_CELLS", 1)
    forks = count_forks(monkeypatch)
    mp = three_football_metric(SPECIAL)
    assert_same_lines(block_csv(mp, bounds, nx, ny), rowwise_csv(mp, bounds, nx, ny))
    assert len(forks) == cpus - 1
    assert_no_child_left()


@pytest.mark.parametrize("here,pinned", [
    (1, [[0], [2]]),
    (-1, []),  # sched_getcpu failed: nothing is pinned
])
def test_csv_children_are_pinned_to_the_other_cpus(monkeypatch, tmp_path, here, pinned):
    set_cpus(monkeypatch, 3)
    monkeypatch.setattr(metric.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(sched_getcpu=lambda: here))
    log, pin = tmp_path / "pinned", os.sched_setaffinity

    def logged(pid, cpus):
        # in the child: record the call, then pin (CPU 2 may not exist)
        with open(log, "a") as fh:
            fh.write(f"{sorted(cpus)}\n")
        pin(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", logged)
    mp, bounds = heart_metric(HeartParams(0.5, 0.0)), (-3.0, 3.0, -3.0, 3.0)
    assert_same_lines(block_csv(mp, bounds, 201, 201), rowwise_csv(mp, bounds, 201, 201))
    calls = log.read_text().splitlines() if log.exists() else []
    assert sorted(calls) == [str(cpus) for cpus in pinned]


@pytest.mark.parametrize("cpus,n,forks", [
    (2, 41, 0),  # the companion grids of verify-sweep and decompose
    (2, 61, 0),  # the default grid
    (2, 201, 1),
    (3, 201, 2),
    (1, 201, 0),
])
def test_csv_parts_follow_the_grid_size_and_the_cpus(monkeypatch, cpus, n, forks):
    set_cpus(monkeypatch, cpus)
    pids = count_forks(monkeypatch)
    block_csv(heart_metric(HeartParams(0.5, 0.0)), (-3.0, 3.0, -3.0, 3.0), n, n)
    assert len(pids) == forks


def test_csv_parts_count_the_cpus_without_an_affinity_mask(monkeypatch):
    # the affinity mask wins over the machine's CPU count where it exists
    set_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pids = count_forks(monkeypatch)
    mp = heart_metric(HeartParams(0.5, 0.0))
    block_csv(mp, (-3.0, 3.0, -3.0, 3.0), 201, 201)
    assert pids == []
    monkeypatch.delattr(os, "sched_getaffinity")
    block_csv(mp, (-3.0, 3.0, -3.0, 3.0), 201, 201)
    assert len(pids) == 2


def test_csv_writes_one_part_without_fork(monkeypatch):
    set_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    mp = heart_metric(HeartParams(0.5, 0.0))
    bounds = (-3.0, 3.0, -3.0, 3.0)
    assert_same_lines(block_csv(mp, bounds, 201, 201), rowwise_csv(mp, bounds, 201, 201))


@pytest.mark.parametrize("where,error,message", [
    ("child", OSError, r"^part 1 of 3 of the grid \(rows 65 to 134\) failed: exit code 1$"),
    # the parent's own error propagates once its children are reaped
    ("parent", RuntimeError, "^kernel failed$"),
])
def test_a_failing_part_raises_after_every_child_is_reaped(monkeypatch, where, error, message):
    set_cpus(monkeypatch, 3)
    pids = count_forks(monkeypatch)
    parent, kernel = os.getpid(), metric._evaluate

    def failing(params, z):
        if (os.getpid() == parent) == (where == "parent"):
            raise RuntimeError("kernel failed")
        return kernel(params, z)

    monkeypatch.setattr(metric, "_evaluate", failing)
    with pytest.raises(error, match=message):
        block_csv(heart_metric(HeartParams(0.5, 0.0)), (-3.0, 3.0, -3.0, 3.0), 201, 201)
    assert len(pids) == 2
    assert_no_child_left()


@pytest.mark.parametrize("bounds,nx,ny,screened", [
    ((-3.0, 3.0, -3.0, 3.0), 201, 201, 0),
    ((-3.0, 3.0, -3.0, 3.0), 7, 300, 0),
    ((-3.0, 3.0, -3.0, 3.0), 1500, 3, 0),
    ((-3.0, 3.0, -3.0, 3.0), 2, 2, 0),
    # every cell but the one on the pole at 1 lies within the arm screen
    ((1.0 - 1e-5, 1.0 + 1e-5, -1e-5, 1e-5), 5, 5, 24),
], ids=["201-201", "7-300", "1500-3", "2-2", "at-the-pole"])
def test_csv_kernel_calls_are_bounded_by_the_block(monkeypatch, bounds, nx, ny, screened):
    # one part: a child's kernel calls are not counted here
    set_cpus(monkeypatch, 1)
    sizes = []
    kernel = metric._evaluate

    def counted(params, z):
        sizes.append(z.size)
        return kernel(params, z)

    monkeypatch.setattr(metric, "_evaluate", counted)
    write_density_grid_csv(heart_metric(HeartParams(0.5, 0.0)), bounds, nx, ny, io.StringIO())
    block = metric.CSV_BLOCK_POINTS
    rows = max(1, block // nx)
    blocks = -(-ny // rows)
    # one kernel call per block on its cells, which the curvature stencil
    # shares; the stencil's arms go through the kernel only at screened cells
    if screened:
        assert sizes == [nx * ny, 4 * screened]
    else:
        assert len(sizes) == blocks
        assert max(sizes) <= max(block, nx)
        assert sum(sizes) == nx * ny


def _scalar_rows(mp, bounds, nx, ny):
    """The grid evaluated one point at a time: phi and density by the scalar
    oracles, K by the stencil at one point."""
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
            cur = curvature(mp, z)
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
    singular = [m.position for m in mp.marked if m.kind != "infinity"]
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
        t = math.exp(-abs(log_scale_at(mp, z)))
        bell = 4.0 * t / (1.0 + t) ** 2
        terms = math.fsum(abs(p.residue / (z - p.position)) for p in mp.form.poles)
        assert abs(got_den - den) <= 1e-14 * bell * terms * terms
        assert abs(got_phi - phi) <= 1e-14 * phi
        if min(abs(z - q) for q in singular) >= 0.1:
            assert abs(got_cur - 1.0) <= 5e-3
