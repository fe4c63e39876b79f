import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemetrics import forms, metric
from conemetrics.errors import (
    DegenerateForm,
    DuplicatePole,
    EvalAtPole,
    ZeroResidue,
)
from conemetrics.families import heart_form


def heart(beta):
    return heart_form(beta)


def min_pole_distance(form, z):
    z = complex(z)
    return min(abs(z - p) for p in form.positions)


# ---------------------------------------------------------------------------
# construction

def test_make_form_heart_values():
    form = forms.make_form([(1.0, 0.6), (-2.0 / 3.0, 0.4)])
    assert form.positions == (1.0 + 0.0j, complex(-2.0 / 3.0, 0.0))
    assert form.residues == (0.6, 0.4)


def test_make_form_rejects_duplicates():
    with pytest.raises(DuplicatePole):
        forms.make_form([(1.0, 0.5), (1.0, 0.3)])


def test_make_form_rejects_zero_residue():
    with pytest.raises(ZeroResidue):
        forms.make_form([(1.0, 0.0), (-1.0, 0.5)])


def test_make_form_rejects_single_pole():
    with pytest.raises(DegenerateForm):
        forms.make_form([(0.0, 1.0)])


def test_make_form_rejects_infinite_position():
    with pytest.raises(ValueError):
        forms.make_form([(forms.INFINITY, 1.0), (0.0, 1.0)])


# ---------------------------------------------------------------------------
# coefficient function

def test_coefficient_zero_at_origin_symmetric():
    form = heart(0.5)
    assert forms._coefficient(form, 0.0) == 0.0


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.6, 0.85])
def test_coefficient_zero_at_origin_any_beta(beta):
    # the partial fractions collapse to z/((z-1)(z+gamma/beta))
    assert abs(forms._coefficient(heart(beta), 0.0)) < 1e-15


def test_coefficient_matches_product_form():
    # f(z) agrees with the rational product expression pointwise
    beta = 0.6
    form = heart(beta)
    value = forms._coefficient(form, 2.0)
    assert value == pytest.approx(0.75, rel=1e-14)

    gamma = 1.0 - beta
    rng_pts = [0.3 + 0.7j, -1.2 + 0.4j, 2.5 - 1.9j, 0.01 + 0.02j, -3.0 - 2.0j]
    for z in rng_pts:
        lhs = forms._coefficient(form, z)
        rhs = z / ((z - 1.0) * (z + gamma / beta))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_eval_at_pole_guard():
    form = heart(0.5)
    with pytest.raises(EvalAtPole):
        forms.coefficient_derivative_at(form, 1.0 + 1e-13)
    with pytest.raises(EvalAtPole):
        forms.coefficient_derivative_at(form, -1.0)


# ---------------------------------------------------------------------------
# derivative

def test_derivative_symmetric_value():
    form = heart(0.5)
    assert forms.coefficient_derivative_at(form, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_derivative_matches_central_difference():
    import random

    rng = random.Random(4)
    form = heart(0.6)
    h = 1e-6
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min_pole_distance(form, z) < 0.05:
            continue
        fd = (forms._coefficient(form, z + h) - forms._coefficient(form, z - h)) / (2 * h)
        exact = forms.coefficient_derivative_at(form, z)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
        checked += 1


def test_derivative_asymptotics_far_away():
    # f'(z) ~ -(sum r) / z^2 for large |z|; next order is O(|sum r p| / |z|)
    form = heart(0.37)
    z = 1e6 + 3e5j
    expected = -1.0 / z**2
    assert abs(forms.coefficient_derivative_at(form, z) - expected) <= 1e-5 * abs(expected)


# ---------------------------------------------------------------------------
# residues

def test_residue_at_infinity_heart():
    assert forms.residue_at_infinity(heart(0.3)) == -1.0
    assert forms.residue_at_infinity(heart(0.5)) == -1.0


def test_residue_at_infinity_three_football_shape():
    al, be, ga = 1.0, (1 + math.sqrt(2)) / 2, 1.0
    form = forms.make_form([(0.5, -be), (-0.9, al + be), (0.2, ga)])
    assert forms.residue_at_infinity(form) == pytest.approx(-(al + ga), abs=1e-15)


def test_residue_cancellation():
    form = forms.make_form([(1.0, 0.7), (-1.0, -0.7)])
    assert forms.residue_at_infinity(form) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.one_of(st.floats(min_value=0.01, max_value=10),
              st.floats(min_value=-10, max_value=-0.01)),
), min_size=2, max_size=5, unique_by=lambda t: (t[0], t[1])))
def test_global_residue_theorem(entries):
    form = forms.make_form([(complex(re, im), r) for re, im, r in entries])
    total = math.fsum(form.residues) + forms.residue_at_infinity(form)
    assert abs(total) <= 1e-14 * sum(abs(r) for r in form.residues)


# ---------------------------------------------------------------------------
# zeros

def test_finite_zeros_heart():
    zeros = forms.finite_zeros(heart(0.6))
    assert len(zeros) == 1
    root, order = zeros[0]
    assert order == 1
    assert abs(root) < 1e-14


def test_finite_zeros_symmetric_pair():
    form = forms.make_form([(1.0, 1.0), (-1.0, 1.0)])
    zeros = forms.finite_zeros(form)
    assert len(zeros) == 1
    assert abs(zeros[0][0]) < 1e-15
    assert zeros[0][1] == 1


def test_finite_zeros_residue_cancellation_leaves_constant():
    # residues (1, -1): the numerator is a nonzero constant, no finite zero
    form = forms.make_form([(1.0, 1.0), (-1.0, -1.0)])
    assert forms.finite_zeros(form) == []


def poly_numerator(form):
    """The numerator coefficients from np.poly, as the program built them before."""
    positions = form.positions
    acc = np.zeros(len(positions), dtype=complex)
    for k, r in enumerate(form.residues):
        acc += r * np.poly([p for j, p in enumerate(positions) if j != k])
    return acc


@pytest.mark.parametrize("poles", [
    [(1.0, 0.6), (-2.0 / 3.0, 0.4)],
    [(0.3 + 0.2j, -0.5), (-0.7 - 1.1j, 1.5), (2.5 + 0.4j, 0.5)],
    [(0.4 + 0.9j, 1.2), (0.4 - 0.9j, -0.3), (-1.5, 0.8)],
    [(1e-3 - 2e3j, 0.25), (-40.0 + 7.5j, -1.75), (0.01 + 0.02j, 2.0)],
    [(0.3 + 0.2j, -0.5), (-0.7 - 1.1j, 1.5), (2.5 + 0.4j, 0.5), (-0.2 + 3.0j, 0.7)],
], ids=["heart", "three", "conjugates", "scales", "four"])
def test_numerator_coefficients_match_np_poly(poles):
    # bit for bit up to three poles, as every family form has; beyond that
    # np.poly sums its products in another order
    form = forms.make_form(poles)
    got, expected = forms._numerator_coefficients(form), poly_numerator(form)
    if len(poles) <= 3:
        assert got.tolist() == expected.tolist()
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(expected.view(float)))
    else:
        assert np.allclose(got, expected, rtol=1e-14, atol=0.0)


def test_finite_zeros_returns_a_fresh_list():
    # the zeros are solved once per form: a caller that edits the list it
    # got must not change what the next caller gets
    form = forms.make_form([(1.0, 0.6), (-2.0, -0.3), (0.5j, 0.9)])
    zeros = forms.finite_zeros(form)
    expected = list(zeros)
    assert len(expected) == 2
    zeros.append((5.0, 1))
    zeros[0] = (9.0, 3)
    assert forms.finite_zeros(form) == expected


# ---------------------------------------------------------------------------
# potential: the metric kernel's s with c = 0

def potential(form, z):
    """s = sum_k r_k ln|z - p_k|^2 at each point of ``z``, from the kernel."""
    return metric._evaluate(metric.MetricParams(form), np.asarray(z, dtype=complex))[0]


def test_potential_symmetric_zero():
    assert potential(heart(0.5), [0.0]).tolist() == [0.0]


def test_potential_heart_frozen_value():
    # 0.6 ln|2-1|^2 + 0.4 ln|2+2/3|^2 = 0.8 ln(8/3)
    value = float(potential(heart(0.6), [2.0])[0])
    assert value == pytest.approx(0.784663402409381, rel=1e-14)


def test_potential_gradient_is_coefficient_pairing():
    # grad(potential) = (2 Re f, -2 Im f) in the standard chart
    import random

    rng = random.Random(11)
    form = heart(0.35)
    h = 1e-6
    z = []
    while len(z) < 100:
        w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min_pole_distance(form, w) >= 0.05:
            z.append(w)
    z = np.array(z)
    right, left, up, down = potential(form, [z + h, z - h, z + 1j * h, z - 1j * h])
    gx, gy = (right - left) / (2 * h), (up - down) / (2 * h)
    f = forms._coefficient(form, z)
    assert np.all(np.hypot(gx - 2 * f.real, gy + 2 * f.imag)
                  <= 1e-6 * np.maximum(1.0, np.hypot(gx, gy)))
