import json
import math

import numpy as np
import pytest

from conemetrics import forms, geodesics
from conemetrics.errors import DegenerateTriangle, TraceDiverged
from conemetrics.families import (
    AngleTriple,
    Branch,
    HeartParams,
    heart_apex_image,
    heart_metric,
    make_three_football,
    special_case_angles,
    three_football_metric,
)
from conemetrics.forms import INFINITY
from conemetrics.geodesics import (
    GeodesicPath,
    decomposition_report,
    l01_side,
    path_length,
    radial_length,
    spherical_angle,
    three_football_lengths,
    trace_radial_preimage,
)
from conemetrics.metric import MetricParams, developing_modulus, vertex_distance


def round_fixture():
    return MetricParams(forms.make_form([(1.0, 1.0), (-1.0, -1.0)]), 0.0)


@pytest.fixture(scope="module")
def special_reports():
    ang = special_case_angles()
    tf = make_three_football(ang, 0.3 + 0.2j, Branch.MINUS, 1.0)
    tf_conj = make_three_football(ang, 0.3 - 0.2j, Branch.MINUS, 1.0)
    return decomposition_report(tf), decomposition_report(tf_conj)


# ---------------------------------------------------------------------------
# closed-form radial lengths

def test_radial_length_symmetric_heart():
    mp = heart_metric(HeartParams(0.5, 0.0))
    assert radial_length(mp, 0.0, 1.0) == pytest.approx(math.pi / 2.0, abs=1e-14)
    assert radial_length(mp, 0.0, INFINITY) == pytest.approx(math.pi / 2.0, abs=1e-14)


def test_radial_length_frozen_value():
    # beta = 0.6, c = 0: 2 atan((2/3)^0.4)
    mp = heart_metric(HeartParams(0.6, 0.0))
    assert radial_length(mp, 0.0, 1.0) == pytest.approx(1.4093166752462678, rel=1e-13)


@pytest.mark.parametrize("beta,c", [(0.3, -1.0), (0.5, 0.0), (0.6, 0.7), (0.85, 2.0)])
def test_heart_pi_sum_and_equal_legs(beta, c):
    hp = HeartParams(beta, c)
    mp = heart_metric(hp)
    pole = complex(-hp.gamma / hp.beta, 0.0)
    l01 = radial_length(mp, 0.0, 1.0)
    lgb = radial_length(mp, 0.0, pole)
    linf = radial_length(mp, 0.0, INFINITY)
    assert abs(l01 + linf - math.pi) <= 1e-12
    assert abs(lgb + linf - math.pi) <= 1e-12
    assert abs(l01 - lgb) <= 1e-12
    assert l01 == pytest.approx(2.0 * math.atan(heart_apex_image(hp)), rel=1e-13)


def test_heart_lengths_move_with_c_only():
    # with the cone data fixed, the leg length is a strictly monotone
    # function of the family constant alone
    values = [radial_length(heart_metric(HeartParams(0.6, c)), 0.0, 1.0)
              for c in (-1.0, 0.0, 1.0, 2.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_three_football_lengths_formula_and_monotonicity():
    ang = special_case_angles()
    values = []
    for camp in (0.25, 0.5, 1.0, 2.0):
        tf = make_three_football(ang, 0.3 + 0.2j, Branch.MINUS, camp)
        mp = three_football_metric(tf)
        ell1, ell2 = three_football_lengths(mp)
        # dual-route check against the generic radial formula
        assert ell1 == pytest.approx(radial_length(mp, 1.0, INFINITY), abs=1e-14)
        assert ell2 == pytest.approx(radial_length(mp, 0.0, INFINITY), abs=1e-14)
        assert 0.0 < ell1 < math.pi and 0.0 < ell2 < math.pi
        values.append((ell1, ell2))
    # |F| scales linearly with the amplitude, so both legs shrink with it
    assert all(a[0] > b[0] and a[1] > b[1] for a, b in zip(values, values[1:]))
    # and they approach pi as the amplitude vanishes
    tf = make_three_football(ang, 0.3 + 0.2j, Branch.MINUS, 1e-8)
    ell1, ell2 = three_football_lengths(three_football_metric(tf))
    assert abs(ell1 - math.pi) < 1e-5 and abs(ell2 - math.pi) < 1e-5


def test_three_football_pi_sums():
    # P_alpha develops to the origin, so the legs through 0-image and
    # infinity-image close up to pi exactly as in the two-pole family
    ang = special_case_angles()
    tf = make_three_football(ang, 0.3 + 0.2j, Branch.MINUS, 1.0)
    mp = three_football_metric(tf)
    s1 = radial_length(mp, 0.0, tf.p_alpha) + radial_length(mp, 0.0, INFINITY)
    s2 = radial_length(mp, 1.0, tf.p_alpha) + radial_length(mp, 1.0, INFINITY)
    assert abs(s1 - math.pi) <= 1e-12
    assert abs(s2 - math.pi) <= 1e-12


# ---------------------------------------------------------------------------
# polyline quadrature

def test_path_length_round_fixture_segment():
    # the straight segment [0, 1] develops onto a radial line, so its
    # length is 2 atan(1) = pi/2
    mp = round_fixture()
    samples = [complex(t, 0.0) for t in np.linspace(0.0, 1.0, 20001)]
    assert path_length(mp, samples) == pytest.approx(math.pi / 2.0, abs=1e-8)


def test_path_length_explicit_round_density_segment():
    # same check against the textbook density, evaluated without the library
    def lam(z):
        return 2.0 / (1.0 + abs(z) ** 2)

    ts = np.linspace(0.0, 1.0, 20001)
    total = sum(lam(complex(0.5 * (a + b), 0.0)) * (b - a)
                for a, b in zip(ts[:-1], ts[1:]))
    assert total == pytest.approx(math.pi / 2.0, abs=1e-8)


def test_path_length_degenerate():
    mp = round_fixture()
    assert path_length(mp, [0.3 + 0.1j]) == 0.0
    assert path_length(mp, []) == 0.0


# ---------------------------------------------------------------------------
# radial preimage tracing

def test_trace_matches_closed_form():
    hp = HeartParams(0.6, 0.7)
    mp = heart_metric(hp)
    pole = complex(-hp.gamma / hp.beta, 0.0)
    closed = radial_length(mp, 0.0, pole)
    trace = trace_radial_preimage(mp, 0.0, pole, n=200)
    assert abs(trace.length - closed) <= 1e-6
    assert trace.endpoint_defect < 1e-6


def test_trace_mirror_symmetry():
    mp = heart_metric(HeartParams(0.5, 0.0))
    right = trace_radial_preimage(mp, 0.0, 1.0, n=150)
    left = trace_radial_preimage(mp, 0.0, -1.0, n=150)
    for a, b in zip(right.samples, left.samples):
        assert abs(a + b) <= 1e-8


def test_trace_samples_reconcile_with_length():
    mp = heart_metric(HeartParams(0.5, 0.0))
    trace = trace_radial_preimage(mp, 0.0, 1.0, n=4000)
    interior = path_length(mp, trace.samples)
    assert abs(interior - (trace.length - sum(trace.stub_lengths))) <= 1e-6


def test_trace_sample_spacing_stays_even():
    # consecutive chart distances stay under the declared bound of four
    # mean spacings of the nominal modulus grid
    mp = heart_metric(HeartParams(0.6, 0.0))
    n = 400
    trace = trace_radial_preimage(mp, 0.0, 1.0, n=n)
    gaps = [abs(b - a) for a, b in zip(trace.samples[:-1], trace.samples[1:])]
    assert max(gaps) <= 4.0 * sum(gaps) / n * (1.0 + 1e-9)


def test_trace_toward_infinity_clipped():
    mp = heart_metric(HeartParams(0.5, 0.0))
    up = geodesics.launch_directions(mp, 0.0, increasing=True)[0]
    trace = trace_radial_preimage(mp, 0.0, INFINITY, n=150, launch_dir=up,
                                  clip_radius=10.0)
    assert abs(trace.samples[-1]) == pytest.approx(10.0, rel=1e-6)
    assert trace.endpoint_defect == pytest.approx(0.1, rel=1e-6)


def test_trace_toward_infinity_full():
    hp = HeartParams(0.5, 0.0)
    mp = heart_metric(hp)
    up = geodesics.launch_directions(mp, 0.0, increasing=True)[0]
    trace = trace_radial_preimage(mp, 0.0, INFINITY, n=200, launch_dir=up)
    closed = radial_length(mp, 0.0, INFINITY)
    assert abs(trace.length - closed) <= 1e-6
    assert trace.endpoint_defect < 1e-6


def test_trace_validates_inputs():
    mp = heart_metric(HeartParams(0.5, 0.0))
    with pytest.raises(ValueError):
        trace_radial_preimage(mp, 0.0, 1.0, n=10)
    with pytest.raises(TraceDiverged):
        trace_radial_preimage(mp, 0.0, 0.5 + 0.5j, n=150)


def test_trace_stepping_onto_a_pole_diverges():
    # at beta = 0.15 the radial curve launched along -1 runs into the pole at
    # -gamma/beta; the right-hand side's pole guard turns that into a typed error
    mp = heart_metric(HeartParams(0.15, 0.0))
    with pytest.raises(TraceDiverged, match="stepped onto a pole"):
        trace_radial_preimage(mp, 0.0, 1.0, launch_dir=-1.0)


def test_geodesic_path_json_keys():
    path = GeodesicPath(samples=[0.0 + 0.0j, 1.0 + 2.0j], length=1.5,
                        endpoint_defect=1e-9)
    payload = json.loads(path.to_json())
    assert set(payload) == {"samples", "length", "endpoint_defect"}
    assert payload["samples"] == [[0.0, 0.0], [1.0, 2.0]]


# ---------------------------------------------------------------------------
# spherical trigonometry

def test_spherical_angle_octant():
    assert spherical_angle(math.pi / 2, math.pi / 2, math.pi / 2) == pytest.approx(math.pi / 2)


def test_spherical_angle_round_trip():
    # reconstruct the side from the angle by the forward law of cosines
    cases = [(0.9, 1.2, 0.7), (0.4, 0.5, 0.6), (2.0, 1.5, 1.1)]
    for a, b, c in cases:
        theta = spherical_angle(a, b, c)
        cos_a = math.cos(b) * math.cos(c) + math.sin(b) * math.sin(c) * math.cos(theta)
        assert math.acos(cos_a) == pytest.approx(a, abs=1e-10)


def test_spherical_angle_isoceles_degeneration():
    # a = b with the adjacent side collapsing: the angle climbs
    # monotonically to the right-angle limit
    angles = [spherical_angle(0.8, 0.8, c) for c in (0.8, 0.4, 0.1, 0.01, 0.001)]
    assert all(x < y for x, y in zip(angles, angles[1:]))
    assert abs(angles[-1] - math.pi / 2.0) < 1e-3
    # and the opposite side collapsing sends the angle to zero
    shrink = [spherical_angle(a, 0.8, 0.8) for a in (1.2, 0.8, 0.4, 0.1, 0.01)]
    assert all(x > y for x, y in zip(shrink, shrink[1:]))
    assert shrink[-1] == pytest.approx(0.01 / math.sin(0.8), rel=1e-3)


def test_spherical_angle_rejects_bad_triangles():
    with pytest.raises(DegenerateTriangle):
        spherical_angle(2.0, 0.3, 0.3)
    with pytest.raises(DegenerateTriangle):
        spherical_angle(0.5, math.pi, 0.5)
    with pytest.raises(DegenerateTriangle):
        spherical_angle(-0.1, 0.5, 0.5)


def test_spherical_angle_clamps_boundary():
    # a + |b - c| exactly flat within roundoff: the argument may overshoot 1
    b, c = 0.8, 0.3
    assert spherical_angle(b - c, b, c) == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# the decomposition report

def test_report_fields_and_json(special_reports):
    rep, _ = special_reports
    payload = json.loads(rep.to_json())
    assert set(payload) == {"ell1", "ell2", "L01", "theta"}
    for value in (rep.ell1, rep.ell2, rep.L01):
        assert 0.0 < value < math.pi
    assert 0.0 < rep.theta < math.pi


def test_report_conjugation_symmetry(special_reports):
    rep, rep_conj = special_reports
    assert rep.ell1 == pytest.approx(rep_conj.ell1, abs=1e-9)
    assert rep.ell2 == pytest.approx(rep_conj.ell2, abs=1e-9)
    assert rep.L01 == pytest.approx(rep_conj.L01, abs=1e-7)
    assert rep.theta == pytest.approx(rep_conj.theta, abs=1e-5)


def test_report_triangle_has_positive_excess(special_reports):
    rep, _ = special_reports
    t1 = spherical_angle(rep.L01, rep.ell1, rep.ell2)
    t2 = spherical_angle(rep.ell1, rep.ell2, rep.L01)
    t3 = spherical_angle(rep.ell2, rep.L01, rep.ell1)
    assert t1 + t2 + t3 > math.pi


@pytest.mark.parametrize("angles,p_beta,branch,c_amp", [
    pytest.param(special_case_angles(), 0.3 + 0.2j, Branch.MINUS, 1.0,
                 id="special-0.3+0.2i"),
    pytest.param(special_case_angles(), 0.4 + 0.1j, Branch.MINUS, 1.0,
                 id="special-0.4+0.1i"),
    pytest.param(AngleTriple(0.7, 0.45, 0.6), 0.4 + 0.3j, Branch.MINUS, 1.0,
                 id="generic-0.4+0.3i"),
    # both legs ~1e-4 and L01 ~2e-7: F(0) and F(1) sit next to infinity
    pytest.param(AngleTriple(1.6608963350394228, 0.8796779344638384, 1.0900366542797937),
                 complex(-1.1074095757031515, 1.1424316500515466), Branch.MINUS,
                 0.7003547356241373, id="ill-conditioned"),
])
def test_l01_agrees_with_arc_prediction(angles, p_beta, branch, c_amp):
    # the law-of-cosines side must agree with the metric length of the
    # lifted arc itself, integrated independently along its chart samples
    # and completed by the two closed-form cone stubs
    mp = three_football_metric(make_three_football(angles, p_beta, branch, c_amp))
    l01, phi = l01_side(mp)
    z0 = complex(geodesics.LAUNCH_OFFSET, 0.0)
    s_end, sol = geodesics._arc_preimage(mp, z0, phi, developing_modulus(mp, 1.0),
                                         1.0 + 0.0j, geodesics.ARC_ARRIVAL_RADIUS)
    xs, ys = sol(np.linspace(0.0, s_end, 20001))
    samples = [complex(x, y) for x, y in zip(xs, ys)]
    z_stop = samples[-1]
    total = (float(vertex_distance(mp, 0.0, z0))
             + path_length(mp, samples)
             + float(vertex_distance(mp, 1.0, z_stop)))
    assert abs(total - l01) <= 1e-6
    if l01 < 1e-6:
        assert abs(total - l01) <= 1e-5 * l01
