import math
import random
import re

import numpy as np
import pytest

from conemetrics import cli
from conemetrics.svg import level_set_segments


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


@pytest.mark.parametrize("flags,marks", [
    (["--family", "heart", "--beta", "0.5"], 4),
    (["--family", "threefb", "--special", "--pbeta", "0.3+0.2i"], 6),
], ids=["heart-0.5", "special-0.3+0.2i"])
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
    # toward P_alpha the default launch direction leaves the admissible
    # region; the opposite direction reaches the pole, so all three pole
    # geodesics are drawn and only the one toward infinity may be missing
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
    # launches from 0 leave the admissible region, and the second launch
    # from the zero at 1 arrives, so every pole geodesic is drawn
    flags = ["--family", "threefb", "--alpha", "1.262185317773029",
             "--beta", "0.29647508489840785", "--gamma", "0.4115199854069033",
             "--pbeta", "-1.2263597072434105+0.6926186654378874i", "--branch", "minus",
             "--camp", "2.9675725092831224"]
    assert cli.main(["plot", *flags, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "plot.svg").read_text()
    assert len(re.findall(r'<polyline class="geodesic"', text)) >= 3
    assert re.findall(r"warning: trace toward (\S+)", text) in ([], ["INFINITY"])
