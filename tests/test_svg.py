import math
import random
import re

import numpy as np
import pytest

from conemetrics import cli, metric
from conemetrics.svg import STEP_BOUND_PX, SvgCanvas, _fmt, add_level_sets, level_set_segments


def loop_segments(values, xs, ys, level):
    """The per-cell marching-squares loop that the array code replaced."""
    segs = []
    for iy in range(len(ys) - 1):
        for ix in range(len(xs) - 1):
            v00 = values[iy][ix]
            v10 = values[iy][ix + 1]
            v01 = values[iy + 1][ix]
            v11 = values[iy + 1][ix + 1]
            if not all(math.isfinite(v) for v in (v00, v10, v01, v11)):
                continue
            corners = [
                (v00, complex(xs[ix], ys[iy])),
                (v10, complex(xs[ix + 1], ys[iy])),
                (v11, complex(xs[ix + 1], ys[iy + 1])),
                (v01, complex(xs[ix], ys[iy + 1])),
            ]
            crossings = []
            for k in range(4):
                va, za = corners[k]
                vb, zb = corners[(k + 1) % 4]
                if (va - level) * (vb - level) < 0.0:
                    t = (level - va) / (vb - va)
                    crossings.append(za + t * (zb - za))
            if len(crossings) == 2:
                segs.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:
                segs.append((crossings[0], crossings[1]))
                segs.append((crossings[2], crossings[3]))
    return segs


def seeded_grid(seed, nx=23, ny=17):
    """Values in {-1, 0, 1} plus noise, with nan and inf cells and nodes exactly on 0."""
    rng = random.Random(seed)
    xs = [-2.0 + 4.0 * i / (nx - 1) for i in range(nx)]
    ys = [-1.5 + 3.0 * j / (ny - 1) for j in range(ny)]
    values = []
    for _ in ys:
        row = []
        for _ in xs:
            u = rng.random()
            if u < 0.05:
                row.append(math.nan)
            elif u < 0.07:
                row.append(math.inf)
            elif u < 0.17:
                row.append(0.0)  # exactly on the level
            else:
                row.append(rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 2.0))
        values.append(row)
    return values, xs, ys


@pytest.mark.parametrize("seed", range(6))
def test_level_set_segments_match_the_cell_loop(seed):
    values, xs, ys = seeded_grid(seed)
    expected = loop_segments(values, xs, ys, 0.0)
    got = level_set_segments(values, xs, ys, 0.0)
    assert got.shape == (len(expected), 2)
    assert [tuple(row) for row in got.tolist()] == expected


def test_seeded_grids_hold_saddles_skipped_cells_and_nodes_on_the_level():
    for seed in range(6):
        values, _, _ = seeded_grid(seed)
        sign = np.sign(np.array(values))  # nan stays nan and compares false
        c00, c10, c11, c01 = sign[:-1, :-1], sign[:-1, 1:], sign[1:, 1:], sign[1:, :-1]
        assert ((c00 == c11) & (c10 == c01) & (c00 == -c10) & (c00 != 0)).any()
        assert np.isnan(sign).any() and (sign == 0).any()


def test_level_set_segments_on_a_smooth_field_at_many_levels():
    xs = [-3.0 + 6.0 * i / 60 for i in range(61)]
    ys = [-3.0 + 6.0 * j / 60 for j in range(61)]
    values = [[math.log(abs(complex(x, y) - 1.0)) - 0.5 * math.log(abs(complex(x, y) + 0.5j))
               if complex(x, y) not in (1.0, -0.5j) else math.nan for x in xs] for y in ys]
    for level in (-1.0, -0.25, 0.0, 0.5, 1.0):
        expected = loop_segments(values, xs, ys, level)
        assert expected
        assert [tuple(row) for row in level_set_segments(values, xs, ys, level).tolist()] \
            == expected


PLOT_FLAGS = pytest.mark.parametrize("flags", [
    ["--family", "heart", "--beta", "0.5"],
    ["--family", "threefb", "--special", "--pbeta", "0.3+0.2i"],
], ids=["heart-0.5", "special-0.3+0.2i"])


def plot_grid(flags):
    """The metric, chart axes and 61 x 61 nodes of ``plot`` at ``flags``."""
    cfg = cli.build_config(cli._build_parser().parse_args(["plot", *flags]))
    mp, g = cfg.metric_params(), cfg.grid
    xs = [g.x_min + (g.x_max - g.x_min) * i / (g.nx - 1) for i in range(g.nx)]
    ys = [g.y_min + (g.y_max - g.y_min) * j / (g.ny - 1) for j in range(g.ny)]
    return mp, xs, ys, np.array([[complex(x, y) for x in xs] for y in ys])


def log_modulus(mp, z):
    """log|F| = c/2 + sum_k r_k log|z - p_k|, nan where not finite: the expression
    plot used before it read s / 2 from the metric kernel."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * mp.c_log + sum(r * np.log(np.abs(z - p))
                                   for p, r in zip(mp.form.positions, mp.form.residues))
    return np.where(np.isfinite(out), out, np.nan)


@PLOT_FLAGS
def test_plot_reads_log_modulus_from_the_kernel_bit_for_bit(flags):
    # the special grid's node 0.2999...98+0.2i lies 2e-16 from P_beta, inside
    # POLE_GUARD: only guard=0.0 keeps it
    mp, _, _, nodes = plot_grid(flags)
    for z in (nodes, np.zeros(1, dtype=complex)):
        got = 0.5 * metric._evaluate(mp, z, guard=0.0)[0]
        expected = log_modulus(mp, z)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    kept = np.isnan(metric._evaluate(mp, nodes)[0]) & ~np.isnan(log_modulus(mp, nodes))
    assert kept.sum() == (0 if flags[1] == "heart" else 1)


@PLOT_FLAGS
def test_level_set_segments_match_the_cell_loop_on_the_plot_grids(flags):
    # the 61 x 61 log |F| grid and the seven levels that plot draws
    mp, xs, ys, nodes = plot_grid(flags)
    values = 0.5 * metric._evaluate(mp, nodes, guard=0.0)[0]
    anchor = 0.5 * float(metric._evaluate(mp, np.zeros(1, dtype=complex), guard=0.0)[0][0])
    drawn = 0
    for k in range(-3, 4):
        level = anchor + k * math.log(2.0)
        expected = loop_segments(values.tolist(), xs, ys, level)
        assert [tuple(row) for row in level_set_segments(values, xs, ys, level).tolist()] \
            == expected
        drawn += bool(expected)
    assert drawn >= 4


def loop_polyline(canvas, points):
    """The ``points`` attribute from the per-point loop that the array code replaced."""
    pix = [canvas.to_pixels(complex(z)) for z in points]
    dense = [pix[0]]
    for (ax, ay), (bx, by) in zip(pix[:-1], pix[1:]):
        pieces = max(1, int(math.ceil(math.hypot(bx - ax, by - ay) / (0.9 * STEP_BOUND_PX))))
        for k in range(1, pieces + 1):
            dense.append((ax + (bx - ax) * k / pieces, ay + (by - ay) * k / pieces))
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in dense)


@pytest.mark.parametrize("seed", range(6))
def test_polyline_matches_the_point_loop(seed):
    # chords from far under to many times the step bound, and repeated points
    rng = random.Random(seed)
    canvas = SvgCanvas(bounds=(-3.0, 3.0, -2.0, 4.0))
    points = [complex(rng.gauss(0.0, 1.0), rng.gauss(1.0, 1.0)) * rng.choice((0.01, 0.1, 1.0))
              for _ in range(2 + 40 * seed)]
    points.append(points[-1])
    canvas.add_polyline(points, "#000000", "geodesic")
    body = re.search(r'points="([^"]*)"', canvas.elements[-1]).group(1)
    assert body == loop_polyline(canvas, points)
    canvas.add_polyline(points[:1], "#000000", "geodesic")
    assert len(canvas.elements) == 1


@pytest.mark.parametrize("v", [-0.0, -0.001, -0.004999, 0.005, 0.015, 799.995, 1e300,
                               math.nan, -math.nan, math.inf, -math.inf])
def test_percent_format_matches_fmt(v):
    assert "%.2f" % v == _fmt(v)


#: a canvas on which chart x = -40.001 and y = 760.002 map to pixels just below 0
NEAR_ZERO_CANVAS = (0.0, 720.0, 0.0, 720.0)


def test_polyline_formats_negative_zero_like_fmt():
    canvas = SvgCanvas(bounds=NEAR_ZERO_CANVAS)
    points = [complex(-40.001, 760.002), complex(10.0, 10.0), complex(-40.001, 300.0)]
    canvas.add_polyline(points, "#000000", "geodesic")
    body = re.search(r'points="([^"]*)"', canvas.elements[-1]).group(1)
    assert body.startswith("-0.00,-0.00 ")
    assert body == loop_polyline(canvas, points)


def loop_level_set_path(canvas, values, xs, ys, level):
    """The ``d`` attribute of a level set, one ``_fmt`` call per coordinate."""
    parts = []
    for a, b in level_set_segments(values, xs, ys, level).tolist():
        (ax, ay), (bx, by) = canvas.to_pixels(a), canvas.to_pixels(b)
        parts.append(f"M {_fmt(ax)} {_fmt(ay)} L {_fmt(bx)} {_fmt(by)}")
    return " ".join(parts)


@pytest.mark.parametrize("seed", range(4))
def test_level_set_path_matches_the_per_value_format(seed):
    values, _, _ = seeded_grid(seed)
    # the first column and row sit where the pixel map gives -0.00
    xs = [-40.001 + 35.0 * i for i in range(len(values[0]))]
    ys = [760.002 - 45.0 * j for j in range(len(values))]
    canvas = SvgCanvas(bounds=NEAR_ZERO_CANVAS)
    levels = (-0.5, 0.0, 0.5, 5.0)
    add_level_sets(canvas, values, xs, ys, levels)
    expected = [loop_level_set_path(canvas, values, xs, ys, level) for level in levels]
    expected = [path for path in expected if path]
    got = [re.search(r' d="([^"]*)"', element).group(1) for element in canvas.elements]
    assert got == expected
    assert any("-0.00" in path for path in got)


@pytest.mark.parametrize("flags,marks", [
    (["--family", "heart", "--beta", "0.5"], 4),
    (["--family", "threefb", "--special", "--pbeta", "0.3+0.2i"], 6),
    # at the anchor no launch from 0 reaches infinity; the first launch from
    # the zero at 1 does
    (["--family", "threefb", "--special", "--pbeta", "0.5"], 6),
], ids=["heart-0.5", "special-0.3+0.2i", "special-0.5"])
def test_plot_draws_every_geodesic_deterministically(capsys, tmp_path, flags, marks):
    texts = []
    for name in ("first", "second"):
        assert cli.main(["plot", *flags, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        texts.append((tmp_path / name / "plot.svg").read_bytes())
    assert texts[0] == texts[1]
    text = texts[0].decode()
    assert len(re.findall(r'<circle class="mark"', text)) == marks
    assert len(re.findall(r'<polyline class="geodesic"', text)) == 4
    assert "warning" not in text
    assert '<path class="levelset"' in text


def test_plot_retries_a_pole_geodesic_from_the_opposite_launch(capsys, tmp_path):
    # toward P_alpha the default launch direction arrives at P_gamma first;
    # the opposite direction reaches P_alpha, so all three pole geodesics
    # are drawn and only the one toward infinity may be missing
    flags = ["--family", "threefb", "--alpha", "1.6530364103257704",
             "--beta", "1.697576937884984", "--gamma", "1.4433167321470777",
             "--pbeta", "-0.3601908442462445+0.6789392050808414i", "--branch", "minus",
             "--camp", "1.5165084589317175"]
    assert cli.main(["plot", *flags, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "plot.svg").read_text()
    assert len(re.findall(r'<polyline class="geodesic"', text)) >= 3
    assert re.findall(r"warning: trace toward (\S+)", text) in ([], ["INFINITY"])


def test_plot_draws_a_pole_geodesic_from_the_zero_at_1(capsys, tmp_path):
    # no radial geodesic from 0 reaches P_alpha, far out at 52-21i: both
    # launches from 0 arrive at P_gamma first, and the first launch from
    # the zero at 1 arrives, so every pole geodesic is drawn
    flags = ["--family", "threefb", "--alpha", "1.262185317773029",
             "--beta", "0.29647508489840785", "--gamma", "0.4115199854069033",
             "--pbeta", "-1.2263597072434105+0.6926186654378874i", "--branch", "minus",
             "--camp", "2.9675725092831224"]
    assert cli.main(["plot", *flags, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "plot.svg").read_text()
    assert len(re.findall(r'<polyline class="geodesic"', text)) >= 3
    assert re.findall(r"warning: trace toward (\S+)", text) in ([], ["INFINITY"])
