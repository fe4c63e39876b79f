import cmath
import math
import random

import pytest
from oracles import special_case_poles

from conemetrics import families, forms
from conemetrics.errors import (
    BadAngle,
    CollidingPoles,
    ConstraintViolated,
    DivisionByZero,
    DoubleRoot,
)
from conemetrics.families import (
    AngleTriple,
    Branch,
    HeartParams,
    constraint_residual,
    derive_pole_quadratic,
    heart_apex_image,
    heart_form,
    make_three_football,
    solve_pole_positions,
    special_case_angles,
    three_football_form,
)

SQRT2 = math.sqrt(2.0)


def admissible_draws(seed, count):
    """Deterministic random admissible (angles, p_beta) pairs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, g = (rng.uniform(0.2, 1.8) for _ in range(3))
        if any(abs(v - round(v)) < 0.05 for v in (b, g, a + b, a + g)):
            continue
        p = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(p) < 0.1 or abs(p - 1.0) < 0.1:
            continue
        out.append((AngleTriple(a, b, g), p))
    return out


# ---------------------------------------------------------------------------
# heart family

def test_heart_params_validation():
    with pytest.raises(BadAngle):
        HeartParams(beta=1.5)
    with pytest.raises(BadAngle):
        HeartParams(beta=0.0)


def test_heart_form_symmetric():
    form = heart_form(0.5)
    assert form.positions == (1.0 + 0.0j, -1.0 + 0.0j)
    assert form.residues == (0.5, 0.5)


def test_heart_form_two_thirds():
    form = heart_form(2.0 / 3.0)
    assert form.positions[1] == pytest.approx(-0.5, abs=1e-15)
    assert form.residues == (2.0 / 3.0, 1.0 - 2.0 / 3.0)


def test_heart_form_residue_structure():
    form = heart_form(0.3)
    assert forms.residue_at_infinity(form) == -1.0
    zeros = forms.finite_zeros(form)
    assert len(zeros) == 1 and abs(zeros[0][0]) < 1e-14


@pytest.mark.parametrize("beta,c,expected", [
    (0.5, 0.0, 1.0),
    (0.6, 0.0, 0.8502830004171938),    # (2/3)^0.4
    (0.5, 2.0 * math.log(3.0), 3.0),   # e^{c/2} = 3
])
def test_heart_apex_image(beta, c, expected):
    assert heart_apex_image(HeartParams(beta, c)) == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------------------
# angle data

def test_angle_triple_positivity():
    with pytest.raises(BadAngle):
        AngleTriple(1.0, -0.5, 1.0)


# ---------------------------------------------------------------------------
# the pole-position quadratic

def test_quadratic_matches_expected_coefficient_block():
    # the interpolated coefficients reproduce the closed-form block
    # (-a b, a b + g b - 2 g b P, g(b+g+a)P^2 - g(a+g) P) up to one factor
    for angles, p in admissible_draws(7, 5):
        a2, a1, a0 = derive_pole_quadratic(angles, p)
        al, be, ga = angles.alpha, angles.beta, angles.gamma
        disp = (-al * be,
                al * be + ga * be - 2.0 * ga * be * p,
                -al * ga * p + al * ga * p * p + ga * be * p * p
                - ga * ga * p + ga * ga * p * p)
        ratios = [a2 / disp[0], a1 / disp[1], a0 / disp[2]]
        assert abs(ratios[1] - ratios[0]) <= 1e-10 * abs(ratios[0])
        assert abs(ratios[2] - ratios[0]) <= 1e-10 * abs(ratios[0])


def test_branch_roots_satisfy_vieta():
    for angles, p in admissible_draws(13, 5):
        a2, a1, a0 = derive_pole_quadratic(angles, p)
        _, pg_minus = solve_pole_positions(angles, p, Branch.MINUS)
        _, pg_plus = solve_pole_positions(angles, p, Branch.PLUS)
        assert abs(pg_minus - pg_plus) > 1e-8
        assert abs(pg_minus + pg_plus + a1 / a2) <= 1e-10 * max(1.0, abs(a1 / a2))
        assert abs(pg_minus * pg_plus - a0 / a2) <= 1e-10 * max(1.0, abs(a0 / a2))


def test_solver_residuals_random_sweep():
    for angles, p in admissible_draws(29, 20):
        for branch in (Branch.MINUS, Branch.PLUS):
            try:
                pa, pg = solve_pole_positions(angles, p, branch)
            except (CollidingPoles, DoubleRoot):
                continue
            r0, r1 = constraint_residual(angles, pa, p, pg)
            assert max(r0, r1) <= 1e-10
            zeros = forms.finite_zeros(three_football_form(angles, pa, p, pg))
            assert len(zeros) == 2
            assert abs(zeros[0][0]) <= 1e-9
            assert abs(zeros[1][0] - 1.0) <= 1e-9


def test_solver_rejects_prescribed_zero_positions():
    with pytest.raises(CollidingPoles):
        solve_pole_positions(special_case_angles(), 0.0, Branch.MINUS)
    with pytest.raises(CollidingPoles):
        solve_pole_positions(special_case_angles(), 1.0, Branch.MINUS)


def test_double_root_raised_on_discriminant_zero():
    # locate a discriminant zero in the P_beta plane by interpolation and
    # solve exactly there
    angles = AngleTriple(0.7, 1.3, 0.4)

    def disc(p):
        a2, a1, a0 = derive_pole_quadratic(angles, p)
        return a1 * a1 - 4.0 * a2 * a0

    d0, dp, dm = disc(0.0), disc(1.0), disc(-1.0)
    qa = 0.5 * (dp + dm) - d0
    qb = 0.5 * (dp - dm)
    s = cmath.sqrt(qb * qb - 4.0 * qa * d0)
    root = (-qb + s) / (2.0 * qa)
    if min(abs(root), abs(root - 1.0)) < 1e-6:
        root = (-qb - s) / (2.0 * qa)
    assert abs(disc(root)) < 1e-10
    with pytest.raises(DoubleRoot):
        solve_pole_positions(angles, root, Branch.MINUS)


# ---------------------------------------------------------------------------
# the branch convention: the root continued from P_beta = 0

def discriminant_zeros(angles):
    """The two zeros of the discriminant in the P_beta plane, by interpolation."""
    def disc(p):
        a2, a1, a0 = derive_pole_quadratic(angles, p)
        return a1 * a1 - 4.0 * a2 * a0

    d0, dp, dm = disc(0.0), disc(1.0), disc(-1.0)
    qa = 0.5 * (dp + dm) - d0
    qb = 0.5 * (dp - dm)
    s = cmath.sqrt(qb * qb - 4.0 * qa * d0)
    return sorted(((-qb + s) / (2.0 * qa), (-qb - s) / (2.0 * qa)),
                  key=lambda z: (z.real, z.imag))


def continued_along_bent_segment(angles, p_beta, zone, steps=4000):
    """sqrt(D(t)) in fine steps from the positive root at t = 0 to t = 1.

    The path is the segment [0, 1] bent over each zone zero by a semicircle
    of radius 0.05 about its real part, taking the upper envelope where two
    semicircles overlap.
    """
    def height(x):
        return max([0.0] + [math.sqrt(0.05 ** 2 - (x - t.real) ** 2)
                            for t in zone if abs(x - t.real) < 0.05])

    root = complex(angles.beta * (angles.alpha + angles.gamma))
    for k in range(1, steps + 1):
        x = k / steps
        a2, a1, a0 = derive_pole_quadratic(angles, complex(x, height(x)) * p_beta)
        cand = cmath.sqrt(a1 * a1 - 4.0 * a2 * a0)
        root = cand if abs(cand - root) <= abs(cand + root) else -cand
    return root


#: (angles, index of the placed zero, where it lands in t, zone zeros, and
#: the sign against cmath.sqrt that the former waypoint continuation gave,
#: None where its overlapping detours wound round one zero twice)
BRANCH_CASES = {
    "one-zone-zero-above": ((0.7, 0.4, 1.3), 0, 0.5 + 0.02j, 1, -1),
    "one-zone-zero-below": ((0.7, 0.4, 1.3), 0, 0.5 - 0.02j, 1, 1),
    "one-zero-on-the-segment": ((0.7, 0.4, 1.3), 0, 0.5, 1, -1),
    "just-above-the-zone": ((0.7, 0.4, 1.3), 0, 0.5 + 0.06j, 0, 1),
    "just-past-the-zone": ((0.7, 0.4, 1.3), 0, 1.07 + 0.01j, 0, 1),
    "two-overlapping-conjugate": ((0.7, 0.62, 0.6), 0, 1.0 / 3.0 - 0.0443j, 2, None),
    "two-overlapping-above": ((0.7, 0.6, 0.62), 0, 0.3 + 0.01j, 2, None),
}


@pytest.mark.parametrize("name", sorted(BRANCH_CASES))
def test_branch_root_is_the_continued_root(name):
    triple, index, t_placed, zone_count, parent_sign = BRANCH_CASES[name]
    angles = AngleTriple(*triple)
    p_beta = discriminant_zeros(angles)[index] / t_placed
    zone = [z / p_beta for z in discriminant_zeros(angles)]
    zone = [t for t in zone if abs(t.imag) < 0.05 and -0.05 < t.real < 1.05]
    assert len(zone) == zone_count
    if name == "one-zero-on-the-segment":
        assert zone[0].imag == 0.0 and 0.0 < zone[0].real < 1.0

    a2, a1, a0 = derive_pole_quadratic(angles, p_beta)
    disc = a1 * a1 - 4.0 * a2 * a0
    s = families._continued_sqrt_discriminant(angles, p_beta, disc)
    principal = cmath.sqrt(disc)
    assert repr(s) in (repr(principal), repr(-principal))
    fine = continued_along_bent_segment(angles, p_beta, zone)
    assert abs(fine - s) <= 1e-12 * abs(s)
    if parent_sign is not None:
        assert s == parent_sign * principal
    _, p_gamma = solve_pole_positions(angles, p_beta, Branch.MINUS)
    assert repr(p_gamma) == repr((-a1 + s) / (2.0 * a2))


@pytest.mark.parametrize("triple", [(0.5, 0.5, 0.5), (1.0, 1.0, 1.0),
                                    (0.05, 0.05, 0.05), (0.7, 0.4, 0.4)])
def test_equal_beta_gamma_names_the_spurious_root(triple):
    # with beta = gamma the cleared quadratic has the root P_gamma = P_beta,
    # which the minus branch picks at p_beta = 0.3+0.2i; the plus branch solves
    angles, p = AngleTriple(*triple), 0.3 + 0.2j
    with pytest.raises(DivisionByZero, match="beta = gamma") as info:
        solve_pole_positions(angles, p, Branch.MINUS)
    assert "minus branch picked the spurious root P_gamma = P_beta" in str(info.value)
    pa, pg = solve_pole_positions(angles, p, Branch.PLUS)
    assert abs(pg - p) > 0.1
    assert max(constraint_residual(angles, pa, p, pg)) <= 1e-10


# ---------------------------------------------------------------------------
# the closed-form special case

def test_special_case_angles_shape():
    ang = special_case_angles(1.0)
    assert ang.alpha == ang.gamma == 1.0
    assert ang.beta == pytest.approx((1.0 + SQRT2) / 2.0, rel=1e-15)


def test_special_case_poles_values():
    pa, pg = special_case_poles(0.5)
    assert pa == pytest.approx(-0.9142135623730951, abs=1e-15)
    assert pg == pytest.approx(0.20710678118654757, abs=1e-15)


def test_special_case_matches_solver_at_anchor():
    # at p_beta = 1/2 the scaled triple is the zeros-at-{0,1} solution
    ang = special_case_angles()
    pa_solved, pg_solved = solve_pole_positions(ang, 0.5, Branch.MINUS)
    pa_closed, pg_closed = special_case_poles(0.5)
    assert abs(pa_solved - pa_closed) <= 1e-12
    assert abs(pg_solved - pg_closed) <= 1e-12


def test_special_case_second_zero_slides_with_p_beta():
    # the scaled triple always kills g(0); its other simple zero sits at
    # 2 p_beta, i.e. the configuration is the anchor one in scaled
    # coordinates z -> z / (2 p_beta)
    ang = special_case_angles()
    rng = random.Random(3)
    for _ in range(20):
        p = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        if min(abs(p), abs(p - 1.0), abs(p - 1.0 / SQRT2)) < 0.05:
            continue
        pa, pg = special_case_poles(p)
        r0, _ = constraint_residual(ang, pa, p, pg)
        assert r0 <= 1e-14
        form = forms.make_form([(p, -ang.beta), (pa, ang.alpha + ang.beta), (pg, ang.gamma)])
        zeros = sorted(forms.finite_zeros(form), key=lambda t: abs(t[0]))
        assert abs(zeros[0][0]) <= 1e-12 * max(1.0, abs(p))
        assert abs(zeros[1][0] - 2.0 * p) <= 1e-9 * max(1.0, abs(p))


def test_special_case_scale_equivalence_with_solver():
    # rescaling the closed-form triple by 1/(2 p_beta) recovers the anchor
    # solution, for any admissible p_beta
    ang = special_case_angles()
    anchor = solve_pole_positions(ang, 0.5, Branch.MINUS)
    rng = random.Random(5)
    for _ in range(10):
        p = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        if min(abs(p), abs(p - 1.0), abs(p - 1.0 / SQRT2)) < 0.05:
            continue
        pa, pg = special_case_poles(p)
        assert abs(pa / (2.0 * p) - anchor[0]) <= 1e-12
        assert abs(pg / (2.0 * p) - anchor[1]) <= 1e-12


# ---------------------------------------------------------------------------
# assembling the family

def test_three_football_form_structure():
    ang = special_case_angles()
    tf = make_three_football(ang, 0.3 + 0.2j, Branch.MINUS, 1.0)
    form = three_football_form(ang, tf.p_alpha, tf.p_beta, tf.p_gamma)
    assert form.residues == (-ang.beta, ang.alpha + ang.beta, ang.gamma)
    assert forms.residue_at_infinity(form) == pytest.approx(-2.0, abs=1e-12)
    zeros = forms.finite_zeros(form)
    assert abs(zeros[0][0]) <= 1e-9 and abs(zeros[1][0] - 1.0) <= 1e-9


def test_three_football_form_rejects_swapped_poles():
    ang = special_case_angles()
    tf = make_three_football(ang, 0.3 + 0.2j, Branch.MINUS, 1.0)
    with pytest.raises(ConstraintViolated):
        three_football_form(ang, tf.p_gamma, tf.p_beta, tf.p_alpha)


def test_constraint_residual_perturbation_sensitivity():
    ang = special_case_angles()
    tf = make_three_football(ang, 0.3 + 0.2j, Branch.MINUS, 1.0)
    r0, r1 = constraint_residual(ang, tf.p_alpha, tf.p_beta, tf.p_gamma)
    assert max(r0, r1) <= 1e-14
    r0p, r1p = constraint_residual(ang, tf.p_alpha, tf.p_beta, tf.p_gamma + 1e-3)
    assert 1e-5 < max(r0p, r1p) < 1e-1


def test_constraint_residual_generic_triple_is_order_one():
    ang = special_case_angles()
    r0, r1 = constraint_residual(ang, 2.0 + 1.0j, 0.4 - 0.3j, -1.0 + 0.5j)
    assert max(r0, r1) > 0.01


def test_c_log_reconciliation():
    ang = special_case_angles()
    tf = make_three_football(ang, 0.3 + 0.2j, Branch.MINUS, 3.0)
    assert tf.c_log == pytest.approx(2.0 * math.log(3.0), rel=1e-15)
    with pytest.raises(BadAngle):
        make_three_football(ang, 0.3 + 0.2j, Branch.MINUS, -1.0)
