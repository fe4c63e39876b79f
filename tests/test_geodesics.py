import cmath
import json
import math
import re
import sys

import numpy as np
import pytest
from oracles import density_at
from scipy.integrate import solve_ivp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from conemetrics import forms, geodesics, metric
from conemetrics.errors import ConeMetricError, EndpointNotReached, EvalAtPole, TraceDiverged
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
    radial_length,
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
# polyline quadrature: the oracle for the lengths of sampled paths

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


@pytest.mark.parametrize("target,clip", [(1.0 + 0.0j, None), (INFINITY, 10.0), (INFINITY, None)],
                         ids=["pole", "clipped-infinity", "infinity"])
def test_trace_arrival_point_is_the_last_sample(target, clip):
    # the length, stubs and defect come from the arrival point, lifted alone;
    # the samples, lifted on their first read, end at exactly that point
    mp = heart_metric(HeartParams(0.5, 0.0))
    up = geodesics.launch_directions(mp, 0.0, increasing=True)[0]
    trace = trace_radial_preimage(mp, 0.0, target, n=200,
                                  launch_dir=up if target is INFINITY else None,
                                  clip_radius=clip)
    assert "samples" not in vars(trace)
    first = trace.samples
    z_end = first[-1]
    if target is INFINITY:
        assert 1.0 / abs(z_end) == trace.endpoint_defect
    else:
        assert abs(z_end - target) == trace.endpoint_defect
    assert trace.samples == first
    assert trace.sampler() == first


def test_trace_validates_inputs():
    mp = heart_metric(HeartParams(0.5, 0.0))
    with pytest.raises(ValueError):
        trace_radial_preimage(mp, 0.0, 1.0, n=10)
    with pytest.raises(TraceDiverged):
        trace_radial_preimage(mp, 0.0, 0.5 + 0.5j, n=150)


SPECIAL_METRIC = three_football_metric(make_three_football(special_case_angles(), 0.3 + 0.2j,
                                                           Branch.MINUS, 1.0))


@pytest.mark.parametrize("mp,target,match", [
    # the zero at 1 is a marked point, but not a radial target
    (SPECIAL_METRIC, 1.0, "not a pole of the form"),
    (SPECIAL_METRIC, 0.5 + 0.5j, "not a pole of the form"),
    # the residues cancel, so |F| has a finite limit at infinity
    (round_fixture(), INFINITY, "finite limit at infinity"),
], ids=["zero", "regular-point", "infinity-regular"])
def test_trace_rejects_a_target_that_is_not_a_pole(mp, target, match):
    with pytest.raises(TraceDiverged, match=match):
        trace_radial_preimage(mp, 0.0, target)


@pytest.mark.parametrize("mp", [heart_metric(HeartParams(0.5, 0.0)), SPECIAL_METRIC],
                         ids=["heart-0.5", "special"])
def test_disc_radii_are_a_fraction_of_the_clearance(mp):
    finite = [m for m in mp.marked if m.position is not INFINITY]
    discs = geodesics._discs(mp.marked)
    assert [(v, k) for v, k, _, _ in discs] == [(m.position, m.pole) for m in finite]
    for (v, _, others, radius), m in zip(discs, finite):
        assert radius == geodesics.DISC_FRACTION * m.clearance
        assert radius == geodesics.DISC_FRACTION * min(abs(w - v) for w in others)
        assert len(others) == len(finite) - 1


def test_trace_stepping_onto_a_pole_diverges():
    # at beta = 0.15 the radial curve launched along -1 runs into the pole at
    # -gamma/beta, the first mark it reaches; the error names that pole
    mp = heart_metric(HeartParams(0.15, 0.0))
    with pytest.raises(TraceDiverged, match=r"arrived at \(-5\.666666666666667\+0j\) \(pole\)"):
        trace_radial_preimage(mp, 0.0, 1.0, launch_dir=-1.0)


def test_launches_from_0_toward_a_far_p_alpha_arrive_at_p_gamma():
    # P_alpha lies far out at 52-21i; both radial curves from 0 that head for
    # it reach P_gamma first, and the trace stops there and names it
    mp = football_metric("seeded-4")
    p_alpha, p_gamma = mp.form.positions[1], mp.form.positions[2]
    default = geodesics._default_launch(mp, 0.0, p_alpha, False)
    for u in (default, -default):
        with pytest.raises(TraceDiverged, match=re.escape(f"arrived at {p_gamma} (pole) first")):
            trace_radial_preimage(mp, 0.0, p_alpha, launch_dir=u)


def count_arrivals(monkeypatch, run):
    """How often the arrival ball's boundary is located while ``run()`` runs."""
    original, calls = geodesics._arrival, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(geodesics, "_arrival", counting)
    run()
    monkeypatch.undo()
    return len(calls)


def test_arrival_is_located_only_where_it_is_read(monkeypatch):
    # l01_side reads only whether an arc reached 1; a trace reads its s_end
    p_beta = SPECIAL_METRIC.form.positions[0]
    assert count_arrivals(monkeypatch, lambda: l01_side(SPECIAL_METRIC)) == 0
    assert count_arrivals(monkeypatch,
                          lambda: trace_radial_preimage(SPECIAL_METRIC, 0.0, p_beta)) == 1


@pytest.mark.parametrize("mp", [
    heart_metric(HeartParams(0.5, 0.0)),
    three_football_metric(make_three_football(special_case_angles(), 0.3 + 0.2j,
                                              Branch.MINUS, 1.0)),
], ids=["heart-0.5", "special"])
def test_correct_returns_the_nearest_pole_distance(mp):
    positions, residues = mp.form.positions, mp.form.residues
    z = 0.4 + 0.7j
    q = sum(r * cmath.log(z - p) for p, r in zip(positions, residues))
    # goals near each pole in turn, so that the nearest pole changes
    goals = [0.45 + 0.72j] + [p + 0.01 * cmath.exp(0.3j) for p in positions]
    for goal in goals:
        target = q + sum(r * cmath.log((goal - p) / (z - p)) for p, r in zip(positions, residues))
        step = geodesics._correct(positions, residues, None, z, q, goal + 1e-7, target)
        assert step is not None
        x_new, z_new, _, _, nearest = step
        assert x_new == z_new
        assert abs(z_new - goal) < 1e-12
        assert nearest == min(abs(z_new - p) for p in positions)
    # from a node in the disc of each pole, in its log chart, to a goal 1e-6
    # from the pole: the chart keeps the offset's digits, z lands within a few
    # ulp, and the nearest pole is the vertex
    discs = geodesics._discs(mp.marked)
    for k, p in enumerate(positions):
        node = p + 0.1 * discs[k][3] * cmath.exp(0.3j)
        q = sum(r * cmath.log(node - w) for w, r in zip(positions, residues))
        f = sum(r / (node - w) for w, r in zip(positions, residues))
        chart, u, slope, _ = geodesics._chart_at(discs, positions, residues, node, q, f)
        assert chart[:2] == (p, k)
        offset = 1e-6 * cmath.exp(2.0j)
        target = q + sum(r * cmath.log((p + offset - w) / (node - w))
                         for w, r in zip(positions, residues) if w != p)
        target += residues[k] * (cmath.log(offset) - u)
        guess = u + geodesics._predict(chart, q, slope, target)
        x_new, z_new, _, _, nearest = geodesics._correct(positions, residues, chart, u, q,
                                                         guess, target)
        assert abs(cmath.exp(x_new) - offset) <= 1e-9 * abs(offset)
        assert abs(z_new - (p + offset)) <= 4.0 * sys.float_info.epsilon * abs(p)
        assert nearest == abs(cmath.exp(x_new))


def dop853_radial_trace(params, a, b, n=400, launch_dir=None, clip_radius=None):
    """The radial trace as the ODE dz/dtau = 1/f(z), integrated by DOP853.

    The reference for the Newton continuation in ``trace_radial_preimage``:
    same launch, same arrival, the same chord bisection of the same
    tau-uniform grid, and the arc length as a third state,
    d(length)/dtau = sech tau, but every decision comes from scipy's event
    location.  Returns ``(path, dense)``, ``dense(tau)`` the rows x, y and
    length, or raises the trace's error classes.
    """
    a = complex(a)
    form = params.form
    if b is INFINITY:
        increasing = sum(form.residues) > 0.0
    else:
        b = complex(b)
        increasing = next(p.residue for p in form.poles if abs(p.position - b) <= 1e-9) < 0.0
    u_hat = geodesics._default_launch(params, a, b, increasing) if launch_dir is None \
        else complex(launch_dir) / abs(complex(launch_dir))
    z_start = a + geodesics.LAUNCH_OFFSET * u_hat
    tau0 = math.log(developing_modulus(params, z_start))

    def rhs(tau, y):
        z = complex(y[0], y[1])
        f, potential = 0j, 0.0
        for p, r in zip(form.positions, form.residues):
            if not abs(z - p) > forms.POLE_GUARD:
                raise EvalAtPole(f"evaluation at {z} is next to a pole")
            f += r / (z - p)
            potential += 2.0 * r * math.log(abs(z - p))
        v = 1.0 / f
        t = math.exp(-abs(potential + params.c_log))
        return [v.real, v.imag, 2.0 * math.sqrt(t) / (1.0 + t)]

    def arrival(tau, y):
        z = complex(y[0], y[1])
        if b is INFINITY:
            return (clip_radius if clip_radius is not None else 2.0e6) - abs(z)
        return abs(z - b) - geodesics.ARRIVAL_RADIUS

    def escaped(tau, y):
        return 1.0 if b is INFINITY else 1.0e3 - math.hypot(y[0], y[1])

    def hit_other_pole(tau, y):
        z = complex(y[0], y[1])
        dists = [abs(z - p) for p in form.positions if b is INFINITY or abs(p - b) > 1e-9]
        return (min(dists) if dists else 1.0) - 1e-11

    for event in (arrival, escaped, hit_other_pole):
        event.terminal = True
    direction = 1.0 if increasing else -1.0
    try:
        sol = solve_ivp(rhs, (tau0, tau0 + direction * 200.0), [z_start.real, z_start.imag, 0.0],
                        method="DOP853", dense_output=True,
                        events=[arrival, escaped, hit_other_pole], rtol=1e-11, atol=1e-13)
    except EvalAtPole as exc:
        raise TraceDiverged(f"trace stepped onto a pole: {exc}") from exc
    if not sol.success:
        raise TraceDiverged(f"radial trace integrator failed: {sol.message}")
    if len(sol.t_events[1]) or len(sol.t_events[2]):
        raise TraceDiverged("radial trace left the admissible region")
    if not len(sol.t_events[0]):
        raise EndpointNotReached(f"trace from {a} never reached {b}")

    tau_end = sol.t_events[0][0]

    def point(tau):
        x, y, _ = sol.sol(tau)
        return complex(x, y)

    taus = np.linspace(tau0, tau_end, n + 1)
    samples = [point(t) for t in taus]
    bound = 4.0 * sum(abs(q - p) for p, q in zip(samples[:-1], samples[1:])) / n
    refined = [samples[0]]
    for ta, tb, zb in zip(taus[:-1], taus[1:], samples[1:]):
        stack = [(ta, refined[-1], tb, zb)]
        while stack:
            t0, z0, t1, z1 = stack.pop()
            if abs(z1 - z0) <= bound or abs(t1 - t0) < 1e-12:
                refined.append(z1)
                continue
            tm = 0.5 * (t0 + t1)
            stack += [(tm, point(tm), t1, z1), (t0, z0, tm, point(tm))]
    stub_a = float(vertex_distance(params, a, z_start))
    stub_b = 0.0 if b is INFINITY and clip_radius is not None \
        else float(vertex_distance(params, b, refined[-1]))
    length = stub_a + abs(float(sol.sol(tau_end)[2])) + stub_b
    defect = 1.0 / abs(refined[-1]) if b is INFINITY else abs(refined[-1] - b)
    return GeodesicPath(length, defect, (stub_a, stub_b), lambda: refined), sol.sol


def log_modulus(params, z):
    """tau = log |F(z)| = c/2 + sum_k r_k log |z - p_k|."""
    return 0.5 * params.c_log + sum(r * math.log(abs(z - p))
                                    for p, r in zip(params.form.positions, params.form.residues))


def plot_traces(mp, starts=(0.0,)):
    """Every (a, b, launch, clip) that ``plot`` may trace, from each start, both launches."""
    form = mp.form
    out = []
    for a in starts:
        for p, r in zip(form.positions, form.residues):
            u, v = geodesics.launch_directions(mp, a, increasing=r < 0.0)
            out += [(a, p, u, None), (a, p, v, None)]
    u, v = geodesics.launch_directions(mp, 0.0, increasing=True)
    return out + [(0.0, INFINITY, u, 10.0), (0.0, INFINITY, v, 10.0)]


def radial_cases():
    heart_half = heart_metric(HeartParams(0.5, 0.0))
    up = geodesics.launch_directions(heart_half, 0.0, increasing=True)
    cases = {
        # the four plot traces and the verify trace
        "heart-0.5": (heart_half, [(0.0, 1.0, None, None, 240), (0.0, -1.0, None, None, 240),
                                   (0.0, INFINITY, up[0], 10.0, 240),
                                   (0.0, INFINITY, up[1], 10.0, 240),
                                   (0.0, 1.0, None, None, 200)]),
    }
    for name, hp in (("heart-0.15", HeartParams(0.15, 0.0)),
                     ("heart-0.15-c0.4", HeartParams(0.15, 0.4))):
        mp = heart_metric(hp)
        # the plot traces from both launches, the -1 launch among them
        cases[name] = (mp, [(a, b, u, clip, 240) for a, b, u, clip in plot_traces(mp)]
                       + [(0.0, 1.0, None, None, 200)])
    fixture = football_metric("special-0.3+0.2i")
    cases["special-0.3+0.2i"] = (
        fixture, [(a, b, u, clip, 240) for a, b, u, clip in plot_traces(fixture)]
        + [(0.0, INFINITY, u, None, 200) for u in geodesics.launch_directions(fixture, 0.0, True)])
    for name in ("seeded-2", "seeded-4"):
        mp = football_metric(name)
        cases[name] = (mp, [(a, b, u, clip, 240) for a, b, u, clip in plot_traces(mp, (0.0, 1.0))])
    return cases


def traced(fn, mp, a, b, u, clip, n):
    try:
        return "arrives", fn(mp, a, b, n=n, launch_dir=u, clip_radius=clip)
    except (TraceDiverged, EndpointNotReached) as exc:
        return type(exc).__name__, None


@pytest.mark.parametrize("name", ["heart-0.5", "heart-0.15", "heart-0.15-c0.4",
                                  "special-0.3+0.2i", "seeded-2", "seeded-4"])
def test_radial_trace_decisions_match_dop853(name):
    # the continuation arrives exactly where the ODE arrives, fails with the
    # same error class where it fails, and samples the same curve
    mp, traces = radial_cases()[name]
    arrived = failed = 0
    for a, b, u, clip, n in traces:
        new_kind, new = traced(trace_radial_preimage, mp, a, b, u, clip, n)
        old_kind, old = traced(dop853_radial_trace, mp, a, b, u, clip, n)
        assert new_kind == old_kind, (a, b, u)
        if new is None:
            failed += 1
            continue
        arrived += 1
        path, dense = old
        assert abs(new.length - path.length) <= 1e-9, (a, b, u)
        assert abs(new.samples[-1] - path.samples[-1]) <= 1e-6, (a, b, u)
        # relative beyond |z| = 1: rtol bounds the ODE's own error out there
        for z in new.samples:
            x, y, _ = dense(log_modulus(mp, z))
            assert abs(z - complex(x, y)) <= 1e-6 * max(1.0, abs(z)), (a, b, u, z)
    assert arrived
    if name.startswith("seeded"):
        assert failed


@pytest.mark.parametrize("name", ["heart-0.5", "special-0.3+0.2i"])
def test_radial_trace_keeps_arg_f_constant(name):
    # along every arriving sample path, arg F summed from the increments
    # sum_k r_k Arg((z' - p_k) / (z - p_k)) stays at its launch value
    mp, traces = radial_cases()[name]
    form = mp.form
    for a, b, u, clip, n in traces:
        kind, path = traced(trace_radial_preimage, mp, a, b, u, clip, n)
        if path is None:
            continue
        z = np.array(path.samples)
        drift = np.cumsum(sum(r * np.angle((z[1:] - p) / (z[:-1] - p))
                              for p, r in zip(form.positions, form.residues)))
        assert np.max(np.abs(drift)) <= 1e-9, (a, b, u)


def looped_node_lift(nodes, positions, signed, targets):
    """The node lift with one pass per pole in each Newton step, which the
    ``(n_poles, N)`` arrays replaced, taken chart by chart: the points lifted
    from the nodes of one chart at a time, with that chart's Newton step."""
    node_s = np.array([n[0] for n in nodes])
    node_q, node_slope, node_x = (np.array([n[i] for n in nodes], dtype=complex)
                                  for i in (2, 5, 6))
    charts = [n[7] for n in nodes]

    def lift(s):
        s = np.asarray(s, dtype=float)
        k = np.clip(np.searchsorted(node_s, s, side="right") - 1, 0, len(nodes) - 1)
        target = targets(s, k)
        out = np.empty(s.shape, dtype=complex)
        for chart in {id(c): c for c in charts}.values():
            sel = np.array([charts[j] is chart for j in k], dtype=bool)
            if not sel.any():
                continue
            xk, qk, t = node_x[k[sel]], node_q[k[sel]], target[sel]
            if chart is None:
                x = xk + (t - qk) / node_slope[k[sel]]
                poles = [(p, r, xk - p) for p, r in zip(positions, signed)]
                for _ in range(6):
                    f = np.zeros_like(x)
                    q = qk.copy()
                    for p, r, base in poles:
                        f += r / (x - p)
                        q += r * np.log((x - p) / base)
                    x = x - (q - t) / f
                out[sel] = x
                continue
            v, vertex, qv = chart[:3]
            if qv is None:
                x = xk + (t - qk) / node_slope[k[sel]]
            else:
                g = qk - qv
                x = xk + np.log((t - qv) / g) * g / node_slope[k[sel]]
            poles = [(j, r, v - p, (v - p) + np.exp(xk))
                     for j, (p, r) in enumerate(zip(positions, signed))]
            for _ in range(6):
                e = np.exp(x)
                f = np.zeros_like(x)
                q = qk.copy()
                for j, r, offset, base in poles:
                    f += r / (offset + e)
                    q += r * (x - xk) if j == vertex else r * np.log((offset + e) / base)
                if qv is None:
                    x = x - (q - t) / (f * e)
                else:
                    x = x - np.log((q - qv) / (t - qv)) * (q - qv) / (f * e)
            out[sel] = v + np.exp(x)
        return out

    return lift


def levelwise_samples(lift, s_end, n):
    """The sample grid bisected level by level, each level's midpoints lifted
    in their own call: the sampler that the batched lifts replaced."""
    s = np.linspace(0.0, s_end, n + 1)
    z = lift(s)
    bound = 4.0 * float(np.sum(np.abs(np.diff(z)))) / n
    while True:
        wide = np.flatnonzero((np.abs(np.diff(z)) > bound) & (np.diff(s) >= 1e-12))
        if not wide.size:
            break
        mid = 0.5 * (s[wide] + s[wide + 1])
        s = np.insert(s, wide + 1, mid)
        z = np.insert(z, wide + 1, lift(mid))
    return z.tolist()


def sampled_traces(monkeypatch, mp, starts, n):
    """``(path, args, calls)`` for every arriving trace that ``plot`` may draw from
    ``starts``, and for the full traces from 0 to infinity.  ``args`` are the
    arguments of the trace's node lift and ``calls`` the parameter arrays passed
    to the lift: the first holds the arrival parameter ``s_end`` alone, the rest
    are sample lifts."""
    original, lifts = geodesics._node_lift, []

    def recording(*args):
        lift, calls = original(*args), []
        lifts.append((args, calls))

        def counted(s):
            calls.append(np.array(s, dtype=float))
            return lift(s)

        return counted

    monkeypatch.setattr(geodesics, "_node_lift", recording)
    up = geodesics.launch_directions(mp, 0.0, increasing=True)
    out = []
    for a, b, u, clip in plot_traces(mp, starts) + [(0.0, INFINITY, v, None) for v in up]:
        _, path = traced(trace_radial_preimage, mp, a, b, u, clip, n)
        if path is not None:
            out.append((path, *lifts[-1]))
    monkeypatch.undo()
    assert out
    return out


def sampled_metric(name):
    """The metric, and the zeros that ``plot`` launches from: 0, and 1 on footballs."""
    if name.startswith("heart"):
        beta, c = {"heart-0.5": (0.5, 0.0), "heart-0.15-c0.4": (0.15, 0.4)}[name]
        return heart_metric(HeartParams(beta, c)), (0.0,)
    return football_metric(name), (0.0, 1.0)


SAMPLED = ["heart-0.5", "heart-0.15-c0.4", "special-0.3+0.2i", "special-0.5", "generic-0.4+0.3i"]


@pytest.mark.parametrize("n", [200, 240, 4000])
@pytest.mark.parametrize("name", SAMPLED)
def test_trace_samples_match_the_levelwise_bisection(monkeypatch, name, n):
    # the midpoints lifted ahead of their level, by the pole-broadcast Newton,
    # give the same samples bit for bit as lifting each level's midpoints in a
    # call of their own, one pass per pole
    for path, args, calls in sampled_traces(monkeypatch, *sampled_metric(name), n):
        (s_end,) = calls[0]
        assert path.samples == levelwise_samples(looped_node_lift(*args), s_end, n)


@pytest.mark.parametrize("name", SAMPLED)
def test_trace_samples_take_at_most_five_lift_calls(monkeypatch, name):
    for path, _, calls in sampled_traces(monkeypatch, *sampled_metric(name), 240):
        assert len(calls) == 1  # the arrival point, lifted alone
        path.samples
        assert 2 <= len(calls) <= 6, [c.size for c in calls]


def test_node_lift_reads_no_node_before_its_first_call():
    # report builds a lift for every arc it tries and calls none of them
    class Unread(list):
        def __iter__(self):
            raise AssertionError("the nodes were read")

    lift = geodesics._node_lift(Unread([None]), (0j,), (1.0,), None)
    with pytest.raises(AssertionError, match="the nodes were read"):
        lift(np.zeros(1))


# ---------------------------------------------------------------------------
# spherical trigonometry: the law-of-cosines angle, an oracle for the report's
# theta, which the program takes as the developing phase |phi|

class DegenerateTriangle(ConeMetricError):
    """Spherical triangle data violates the triangle inequality or is degenerate."""


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


#: football configurations for the 0-1 side, by the ids the tests print
FOOTBALLS = {
    "special-0.3+0.2i": (special_case_angles(), 0.3 + 0.2j, Branch.MINUS, 1.0),
    "special-0.4+0.1i": (special_case_angles(), 0.4 + 0.1j, Branch.MINUS, 1.0),
    "special-0.5": (special_case_angles(), 0.5 + 0.0j, Branch.MINUS, 1.0),
    "generic-0.4+0.3i": (AngleTriple(0.7, 0.45, 0.6), 0.4 + 0.3j, Branch.MINUS, 1.0),
    # both legs ~1e-4 and L01 ~2e-7: F(0) and F(1) sit next to infinity
    "ill-conditioned": (
        AngleTriple(1.6608963350394228, 0.8796779344638384, 1.0900366542797937),
        complex(-1.1074095757031515, 1.1424316500515466), Branch.MINUS, 0.7003547356241373),
    # seeded generic footballs (alpha, beta, gamma, p_beta, branch, c_amp)
    "seeded-0": (AngleTriple(0.9710615228065242, 0.27482320278005584, 0.7211250491091048),
                 complex(0.2170458470113621, -0.47784025417729703), Branch.MINUS,
                 0.6777627722021382),
    "seeded-1": (AngleTriple(0.7849110281035603, 1.6960161533617053, 0.8794993164142155),
                 complex(0.6365810070426567, -0.4072599683944087), Branch.MINUS,
                 0.25735752727024286),
    "seeded-2": (AngleTriple(0.5352380008372493, 0.5838368073194037, 1.0513278238693402),
                 complex(-1.0607119402740133, -1.3455340596180707), Branch.PLUS,
                 0.3621265435836514),
    "seeded-3": (AngleTriple(1.6530364103257704, 1.697576937884984, 1.4433167321470777),
                 complex(-0.3601908442462445, 0.6789392050808414), Branch.MINUS,
                 1.5165084589317175),
    "seeded-4": (AngleTriple(1.262185317773029, 0.29647508489840785, 0.4115199854069033),
                 complex(-1.2263597072434105, 0.6926186654378874), Branch.MINUS,
                 2.9675725092831224),
    "seeded-5": (AngleTriple(1.0450506072013837, 0.6477733855907936, 1.759546764689519),
                 complex(0.4394353241487714, -0.1539598972220353), Branch.PLUS,
                 3.94175280536217),
}


def football_metric(name):
    return three_football_metric(make_three_football(*FOOTBALLS[name]))


@pytest.mark.parametrize("name", ["special-0.3+0.2i", "special-0.4+0.1i", "special-0.5",
                                  "generic-0.4+0.3i", "ill-conditioned"])
def test_l01_agrees_with_arc_prediction(name):
    # the law-of-cosines side must agree with the metric length of the
    # lifted arc itself, integrated independently along its chart samples
    # and completed by the two closed-form cone stubs
    mp = football_metric(name)
    l01, phi, z0 = l01_side(mp)
    phi_lift = next(c[3] for c in geodesics._l01_candidates(mp) if c[1:3] == (phi, z0))
    arrival, lift = geodesics._arc_preimage(mp, z0, phi_lift, developing_modulus(mp, 1.0),
                                            mp.mark_at(1.0))
    samples = lift(np.linspace(0.0, arrival(), 20001)).tolist()
    assert abs(samples[0] - z0) <= 1e-9
    z_stop = samples[-1]
    total = (float(vertex_distance(mp, 0.0, z0))
             + path_length(mp, samples)
             + float(vertex_distance(mp, 1.0, z_stop)))
    assert abs(total - l01) <= 1e-6
    if l01 < 1e-6:
        assert abs(total - l01) <= 1e-5 * l01


def dop853_arc_preimage(params, z0, phi, mod_target, stop_center, stop_radius):
    """The arc lift as an ODE, dz/ds = (w'/w) / (sigma f(z)), integrated by DOP853.

    The reference for the Newton continuation in ``geodesics._arc_preimage``:
    same arc, same 1/F swap, same exits, but every decision comes from
    scipy's event location.  Returns ``(s_end, dense solution)`` or None.
    """
    form = params.form
    mod_start = developing_modulus(params, z0)
    sign = 1.0
    if mod_start > 1.0:
        mod_start, mod_target, phi, sign = 1.0 / mod_start, 1.0 / mod_target, -phi, -1.0
    ax, ay, az = a = geodesics._lift_to_sphere(complex(mod_start, 0.0))
    bx, by, bz = b = geodesics._lift_to_sphere(mod_target * cmath.exp(1j * phi))
    omega = 2.0 * math.asin(min(1.0, 0.5 * math.dist(a, b)))
    if omega < 1e-12 or omega > math.pi - 1e-9:
        return None
    sin_omega = math.sin(omega)

    def log_derivative(s):
        ca, cb = math.sin((1.0 - s) * omega), math.sin(s * omega)
        da, db = -omega * math.cos((1.0 - s) * omega), omega * math.cos(s * omega)
        wx = (ca * ax + cb * bx) / sin_omega
        wy = (ca * ay + cb * by) / sin_omega
        wz = (ca * az + cb * bz) / sin_omega
        dx = (da * ax + db * bx) / sin_omega
        dy = (da * ay + db * by) / sin_omega
        dz = (da * az + db * bz) / sin_omega
        horizontal = complex(wx, wy)
        vertical = 1.0 - wz
        if abs(horizontal) < 1e-14 or abs(vertical) < 1e-14:
            raise ZeroDivisionError("arc ran over a projection pole")
        return complex(dx, dy) / horizontal + dz / vertical

    def rhs(s, y):
        z = complex(y[0], y[1])
        if min(abs(z - p) for p in form.positions) <= forms.POLE_GUARD:
            raise EvalAtPole(f"evaluation at {z} is next to a pole")
        f = sum(r / (z - p) for p, r in zip(form.positions, form.residues))
        v = log_derivative(s) / (sign * f)
        return [v.real, v.imag]

    def reached(s, y):
        return abs(complex(y[0], y[1]) - stop_center) - stop_radius

    def escaped(s, y):
        return 1.0e3 - math.hypot(y[0], y[1])

    def near_pole(s, y):
        return min(abs(complex(y[0], y[1]) - p) for p in form.positions) - 1e-9

    for event in (reached, escaped, near_pole):
        event.terminal = True
    try:
        sol = solve_ivp(rhs, (0.0, 1.0), [z0.real, z0.imag], method="DOP853",
                        dense_output=True, events=[reached, escaped, near_pole],
                        rtol=1e-10, atol=1e-13)
    except (EvalAtPole, ZeroDivisionError):
        return None
    if not sol.success or not len(sol.t_events[0]):
        return None
    return float(sol.t_events[0][0]), sol.sol


@pytest.mark.parametrize("name", ["special-0.3+0.2i", "special-0.4+0.1i", "special-0.5",
                                  "generic-0.4+0.3i", "ill-conditioned"])
def test_arc_lift_decisions_match_dop853(name):
    # every path class from every launch point: the continuation realizes
    # exactly the classes the ODE realizes, along the same curve
    mp = football_metric(name)
    mod1, one = developing_modulus(mp, 1.0), mp.mark_at(1.0)
    candidates = geodesics._l01_candidates(mp)
    assert {c[2] for c in candidates} == set(geodesics.LAUNCH_POINTS)
    realized = 0
    for _, _, z0, phi in candidates:
        new = geodesics._arc_preimage(mp, z0, phi, mod1, one)
        old = dop853_arc_preimage(mp, z0, phi, mod1, 1.0 + 0.0j, geodesics.ARC_ARRIVAL_RADIUS)
        assert (new is None) == (old is None), (phi, z0)
        if new is None:
            continue
        realized += 1
        s = np.linspace(0.0, 0.999 * min(new[0](), old[0]), 201)
        xo, yo = old[1](s)
        assert np.max(np.abs(new[1](s) - (xo + 1j * yo))) <= 1e-6, (phi, z0)
    assert realized


@pytest.mark.parametrize("name", list(FOOTBALLS))
def test_l01_candidates_agree_across_launch_points(name):
    # L01 and phi are taken at the vertex 0, so every launch point offers
    # each class with bit-identical values; only the lift phase differs
    candidates = geodesics._l01_candidates(football_metric(name))
    per_launch = {z0: sorted((l01, phi) for l01, phi, z, _ in candidates if z == z0)
                  for z0 in geodesics.LAUNCH_POINTS}
    first = per_launch[geodesics.LAUNCH_POINTS[0]]
    assert first
    assert all(classes == first for classes in per_launch.values())
    assert all(abs(phi_lift - phi) < 1e-6 for _, phi, _, phi_lift in candidates)


def test_l01_side_lifts_from_both_sheets():
    # the shortest class of the anchor and of 0.4+0.1i starts on the sheets
    # of the 4 pi cone at 0 that the +x launch point misses
    l01, phi, z0 = l01_side(football_metric("special-0.5"))
    assert (l01, abs(phi)) == (pytest.approx(2.1774506, abs=1e-7),
                               pytest.approx(0.6506451, abs=1e-7))
    assert z0 != geodesics.LAUNCH_POINTS[0]
    l01, _, z0 = l01_side(football_metric("special-0.4+0.1i"))
    assert l01 == pytest.approx(0.18363, abs=1e-5)
    assert z0 != geodesics.LAUNCH_POINTS[0]


def graph_distance(mp, n=401, half=4.0):
    """d(0, 1) as a shortest path on a 16-direction grid graph over [-half, half]^2.

    Each edge weighs the Simpson mean of lambda along it times its chart
    length.  A graph path is a real path, so up to quadrature error this
    overestimates the distance, by the detour the 16 directions force.
    """
    h = 2.0 * half / (n - 1)

    def lam(i, j):
        return np.sqrt(metric._evaluate(mp, (-half + h * j) + 1j * (-half + h * i))[2])

    index = np.arange(n * n).reshape(n, n)
    ii, jj = np.mgrid[0:n, 0:n].astype(float)
    lam_nodes = lam(ii, jj)
    rows, cols, weights = [], [], []
    for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1)):
        rs, cs = slice(0, n - di), slice(max(0, -dj), n - max(0, dj))
        rt, ct = slice(di, n), slice(max(0, dj), n - max(0, -dj))
        mid = lam(ii[rs, cs] + 0.5 * di, jj[rs, cs] + 0.5 * dj)
        w = (lam_nodes[rs, cs] + 4.0 * mid + lam_nodes[rt, ct]) / 6.0 * h * math.hypot(di, dj)
        ok = np.isfinite(w)  # drop the edges through a pole
        rows.append(index[rs, cs][ok])
        cols.append(index[rt, ct][ok])
        weights.append(w[ok])
    graph = coo_matrix((np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n * n, n * n)).tocsr()
    centre = (n - 1) // 2
    dist = dijkstra(graph, directed=False, indices=index[centre, centre])
    return dist[index[centre, centre + round(1.0 / h)]]


@pytest.mark.parametrize("name", list(FOOTBALLS))
def test_l01_side_matches_a_graph_distance_oracle(name):
    # L01 is the metric distance d(0, 1): no path of the grid graph is
    # shorter, and the graph's detour stays within its 1.5% discretization
    mp = football_metric(name)
    ratio = graph_distance(mp) / l01_side(mp)[0]
    assert 1.0 <= ratio <= 1.015


# ---------------------------------------------------------------------------
# the log charts at the cones: fewer nodes, the parent's arrival points

def continued_node_counts(monkeypatch, run):
    """The node counts of every continuation that arrives at its target while ``run()`` runs."""
    original, counts = geodesics._continue, []

    def counting(*args):
        mark, nodes, arrival = original(*args)
        if mark is args[8]:
            counts.append(len(nodes))
        return mark, nodes, arrival

    monkeypatch.setattr(geodesics, "_continue", counting)
    run()
    monkeypatch.undo()
    return counts


def test_heart_traced_length_trace_takes_at_most_40_nodes(monkeypatch):
    # the z chart alone took 131: 49 in the disc of the zero at 0, 74 in that of the pole at 1
    mp = heart_metric(HeartParams(0.5, 0.0))
    counts = continued_node_counts(monkeypatch,
                                   lambda: trace_radial_preimage(mp, 0.0, 1.0, n=200))
    assert len(counts) == 1 and counts[0] <= 40, counts


@pytest.mark.parametrize("p_beta", [0.3 + 0.2j, 0.3 - 0.2j, 0.5 + 0.0j])
def test_report_arc_lift_takes_at_most_35_nodes(monkeypatch, p_beta):
    # the decompose set of the benchmark; the z chart alone took 73-77 nodes
    tf = make_three_football(special_case_angles(), p_beta, Branch.MINUS, 1.0)
    counts = continued_node_counts(monkeypatch, lambda: decomposition_report(tf))
    assert len(counts) == 1 and counts[0] <= 35, counts


def radial_arrival(monkeypatch, mp, a, b, u=None, clip=None):
    """``(s_end, z_end)`` of a radial trace: its first lift is the arrival point alone."""
    original, arrivals = geodesics._node_lift, []

    def recording(*args):
        lift = original(*args)

        def first(s):
            z = lift(s)
            if not arrivals:
                arrivals.append((float(s[0]), complex(z[0])))
            return z

        return first

    monkeypatch.setattr(geodesics, "_node_lift", recording)
    trace_radial_preimage(mp, a, b, n=200, launch_dir=u, clip_radius=clip)
    monkeypatch.undo()
    return arrivals[0]


def arc_arrival(angles, p_beta):
    """``(s_end, z_end)`` of the 0-1 arc that the report lifts."""
    mp = three_football_metric(make_three_football(angles, p_beta, Branch.MINUS, 1.0))
    _, phi, z0 = l01_side(mp)
    phi_lift = next(c[3] for c in geodesics._l01_candidates(mp) if c[1:3] == (phi, z0))
    arrival, lift = geodesics._arc_preimage(mp, z0, phi_lift, developing_modulus(mp, 1.0),
                                            mp.mark_at(1.0))
    s_end = arrival()
    return s_end, complex(lift(np.array([s_end]))[0])


#: (s_end, z_end) of the z-chart continuation that the log charts replaced
PARENT_ARRIVALS = {
    "heart-0.5-infinity-clipped": (2.307560253420629, 6.123233995736766e-21 + 9.999999999999995j),
    "heart-0.15-c0.4-infinity-clipped+": (1.1541666330424498,
                                          7.887274302848613 + 6.147430688639287j),
    "heart-0.15-c0.4-infinity-clipped-": (1.1541666330424498,
                                          7.887274302848613 - 6.147430688639287j),
    "special-infinity-clipped": (1.864911513112978, 8.300541662728868 - 5.576827781571016j),
    "arc-special-0.3+0.2i": (0.9999388760395019, 0.9947494984172419 - 0.008510712845003088j),
    "arc-special-0.3-0.2i": (0.9999388760395019, 0.9947494984172419 + 0.008510712845003088j),
    "arc-special-0.5": (0.9999844134159603, 0.997318232577485 + 0.009633697290664517j),
    "arc-special-0.4+0.1i": (0.9999651540979326, 0.9977659590762976 - 0.009747259161073687j),
    "arc-generic-0.4+0.3i": (0.9998295106640531, 0.9929409711850239 - 0.007083086346331719j),
}


def pinned_arrival(monkeypatch, name):
    heart_half = heart_metric(HeartParams(0.5, 0.0))
    heart_low = heart_metric(HeartParams(0.15, 0.4))
    up, down = geodesics.launch_directions(heart_low, 0.0, increasing=True)
    if name == "heart-0.5-infinity-clipped":
        u = geodesics.launch_directions(heart_half, 0.0, increasing=True)[0]
        return radial_arrival(monkeypatch, heart_half, 0.0, INFINITY, u, 10.0)
    if name.startswith("heart-0.15-c0.4-infinity-clipped"):
        return radial_arrival(monkeypatch, heart_low, 0.0, INFINITY,
                              up if name.endswith("+") else down, 10.0)
    if name == "special-infinity-clipped":
        fixture = football_metric("special-0.3+0.2i")
        u = geodesics.launch_directions(fixture, 0.0, increasing=True)[0]
        return radial_arrival(monkeypatch, fixture, 0.0, INFINITY, u, 10.0)
    if name == "arc-special-0.3-0.2i":
        return arc_arrival(special_case_angles(), 0.3 - 0.2j)
    angles, p_beta, _, _ = FOOTBALLS[name.removeprefix("arc-")]
    return arc_arrival(angles, p_beta)


@pytest.mark.parametrize("name", list(PARENT_ARRIVALS))
def test_arrival_matches_the_z_chart_continuation(monkeypatch, name):
    # the charts change the nodes, not the curve: where the gap is well
    # conditioned, the arrival lands where the z chart landed
    s_end, z_end = pinned_arrival(monkeypatch, name)
    s_old, z_old = PARENT_ARRIVALS[name]
    assert abs(s_end - s_old) <= 1e-12 * abs(s_old)
    assert abs(z_end - z_old) <= 1e-12 * abs(z_old)


#: (b, residue at b, s_end, z_end) of radial traces into a pole, by the z chart alone
PARENT_POLE_ARRIVALS = {
    "heart-0.5-to-1": (1.0, 0.5, 6.907755398962904, 0.9999994999999999 - 1.2246471176023343e-30j),
    "heart-0.5-to-minus-1": (-1.0, 0.5, 6.907755398962939,
                             -0.9999994999999999 + 1.2246471176024151e-30j),
    "heart-0.15-c0.4-to-1": (1.0, 0.15, 2.0381576333292704,
                             0.9999994999999992 - 7.204401090529195e-31j),
    "special-to-p_alpha": (1, None, 36.040185693622746, -3.76533151246886 + 3.729428436885205j),
    "special-to-p_beta": (0, None, 15.040861812966043, 0.2999999321922582 + 0.2000004953807729j),
}


@pytest.mark.parametrize("name", list(PARENT_POLE_ARRIVALS))
def test_pole_arrival_matches_the_z_chart_continuation(monkeypatch, name):
    # z_end to 1e-12.  s_end only as far as the gap |z - b| - ARRIVAL_RADIUS
    # fixes it: z is rounded to ulps of |b| while |z - b| grows only by
    # ARRIVAL_RADIUS / |r_b| per unit of s, so both continuations place s_end
    # within a few eps |b| |r_b| / ARRIVAL_RADIUS (1e-11 to 4e-10 relative)
    b, residue, s_old, z_old = PARENT_POLE_ARRIVALS[name]
    if name.startswith("special"):
        mp = football_metric("special-0.3+0.2i")
        b, residue = mp.form.positions[b], mp.form.residues[b]
    else:
        beta, c = (0.5, 0.0) if name.startswith("heart-0.5") else (0.15, 0.4)
        mp = heart_metric(HeartParams(beta, c))
    s_end, z_end = radial_arrival(monkeypatch, mp, 0.0, b)
    assert abs(z_end - z_old) <= 1e-12 * abs(z_old)
    conditioning = sys.float_info.epsilon * abs(b) * abs(residue) / geodesics.ARRIVAL_RADIUS
    assert abs(s_end - s_old) <= 16.0 * conditioning
