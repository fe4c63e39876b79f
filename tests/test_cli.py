import json
import math
import os
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import conemetrics
from conemetrics import cli, families, forms, metric
from conemetrics.forms import INFINITY


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def literal(z: complex) -> str:
    return f"{z.real!r}{'+' if z.imag >= 0.0 else '-'}{abs(z.imag)!r}i"


def test_grid_value_may_start_with_a_dash(capsys, tmp_path):
    spaced = tmp_path / "spaced"
    joined = tmp_path / "joined"
    code, _ = run(capsys, "sample", "--family", "heart", "--grid", "-3,3,-3,3,5,5",
                  "--out", str(spaced))
    assert code == 0
    assert run(capsys, "sample", "--family=heart", "--grid=-3,3,-3,3,5,5",
               f"--out={joined}")[0] == 0
    assert (spaced / "sample.csv").read_bytes() == (joined / "sample.csv").read_bytes()


def test_pole_values_may_start_with_a_dash(capsys, tmp_path):
    # the solved companions at p_beta = -0.5+0.2i both have negative real
    # parts; passing them back as overrides must reproduce the solved metric
    p_beta = complex(-0.5, 0.2)
    p_alpha, p_gamma = families.solve_pole_positions(
        families.special_case_angles(), p_beta, families.Branch.MINUS)
    assert p_alpha.real < 0.0 and p_gamma.real < 0.0
    common = ["--family", "threefb", "--special", "--grid", "-1,1,-1,1,5,5"]
    code, _ = run(capsys, "sample", *common, "--pbeta", literal(p_beta),
                  "--palpha", literal(p_alpha), "--pgamma", literal(p_gamma),
                  "--out", str(tmp_path / "spaced"))
    assert code == 0
    code, _ = run(capsys, "sample", *common, f"--pbeta={literal(p_beta)}",
                  "--out", str(tmp_path / "joined"))
    assert code == 0
    assert ((tmp_path / "spaced" / "sample.csv").read_bytes()
            == (tmp_path / "joined" / "sample.csv").read_bytes())


def fresh_interpreter_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(conemetrics.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point_runs_without_warnings():
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "conemetrics.cli", "--help"],
        env=fresh_interpreter_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "verify" in done.stdout


VERIFY_LOADING_NO_SCIPY = """
import contextlib, io, json, sys
from conemetrics import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["verify", "--family", "heart", "--beta", "0.5"]),
             cli.main(["verify", "--family", "threefb", "--special", "--pbeta", "0.3+0.2i"])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_cli_imports_and_verifies_without_scipy():
    # no program path calls scipy, so a fresh process that runs verify loads none of it
    done = subprocess.run([sys.executable, "-c", VERIFY_LOADING_NO_SCIPY],
                          env=fresh_interpreter_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0, 0], "scipy": []}


def test_geodesics_lends_scipys_solve_ivp_by_name():
    # the benchmark's tracer looks up geodesics.solve_ivp; other names stay missing
    import scipy.integrate

    from conemetrics import geodesics

    assert geodesics.solve_ivp is scipy.integrate.solve_ivp
    with pytest.raises(AttributeError):
        getattr(geodesics, "no_such_name")
    with pytest.raises(ImportError):
        from conemetrics.geodesics import no_such_name  # noqa: F401


def test_verify_flags_a_corrupted_palpha_override(capsys):
    p_beta = complex(0.3, 0.2)
    p_alpha, _ = families.solve_pole_positions(
        families.special_case_angles(), p_beta, families.Branch.MINUS)
    code, out = run(capsys, "verify", "--family", "threefb", "--special",
                    "--pbeta", literal(p_beta), "--palpha", literal(p_alpha + 1e-3))
    assert code == 1
    assert re.search(r"^constraint-residual: residual=\S+ tol=\S+ FAIL$", out, re.M), out


@pytest.mark.parametrize("p_beta", ["0.3+0.2i", "0.5"])
def test_report_exit_code_matches_payload(capsys, p_beta):
    # the anchor p_beta = 1/2 may or may not yield a triangle; either way
    # the exit status and the payload must agree
    code, out = run(capsys, "report", "--family", "threefb", "--special", "--pbeta", p_beta)
    payload = json.loads(out)
    assert code in (0, 1)
    assert ("error" in payload) == (code == 1)
    if code == 0:
        assert set(payload) == {"ell1", "ell2", "L01", "theta"}


@pytest.mark.parametrize("p_beta", ["0.3+0.2i", "0.5"])
def test_report_prints_one_triangle_and_nothing_else(capsys, p_beta):
    # the whole output is one JSON object with the four sides and angle:
    # no warning of Python or numpy, and nothing on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["report", "--family", "threefb", "--special", "--pbeta", p_beta])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert isinstance(payload, dict)
    assert set(payload) == {"ell1", "ell2", "L01", "theta"}


@pytest.mark.parametrize("config", [
    ("--family", "threefb", "--special", "--pbeta", "0.3+0.2i"),
    ("--family", "heart", "--beta", "0.15"),
    ("--family", "heart", "--beta", "0.3"),
    # two poles 2.3e-3 apart, and the third at |z| ~ 887
    ("--family", "threefb", "--alpha", "0.7245642810191482", "--beta", "0.42651681363642596",
     "--gamma", "0.42424003566607277", "--pbeta", "1.1960650911833999-0.5356159447174936i",
     "--branch", "minus", "--camp", "3.4310515156189765"),
    # a pole at |z| ~ 427, within 3e-3 of infinity in the w = 1/z chart
    ("--family", "threefb", "--alpha", "1.1540720102069653", "--beta", "0.5703196331778746",
     "--gamma", "0.5601789631272324", "--pbeta", "-0.2547391929220373-1.0149269795084517i",
     "--branch", "minus", "--camp", "1.57006035055644"),
], ids=["special-0.3+0.2i", "heart-0.15", "heart-0.3", "crowded-poles", "crowded-infinity"])
def test_verify_curvature_passes_where_the_density_is_tiny(capsys, config):
    # every check passes, cone angles and traced length included, and no
    # marked point is too crowded for its cone-angle contour
    code, out = run(capsys, "verify", *config)
    lines = out.splitlines()
    assert code == 0, out
    assert lines[-1] == "all checks passed", out
    assert all(re.fullmatch(r"\S+: residual=\S+ tol=\S+ PASS", line) for line in lines[:-1]), out
    assert any(line.startswith("curvature:") for line in lines), out


#: the check lines ``verify`` prints for each family, in order
VERIFY_CHECKS = {
    "heart": ("residue-sum", "product-form", "zero-placement", "metric-equivalence",
              "dphi-identity", "curvature", "cone-angles", "length-identities",
              "traced-length"),
    "threefb": ("residue-sum", "constraint-residual", "zero-placement", "metric-equivalence",
                "dphi-identity", "curvature", "cone-angles", "length-identities"),
}


@pytest.mark.parametrize("config", [
    ("--family", "heart", "--beta", "0.5"),
    ("--family", "threefb", "--special", "--pbeta", "0.3+0.2i"),
], ids=["heart-0.5", "special-0.3+0.2i"])
def test_plot_and_verify_print_only_their_results(capsys, tmp_path, config):
    # plot prints its path and verify its check lines and summary: no
    # warning of Python or numpy, and nothing on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["plot", *config, "--out", str(tmp_path)])
        plotted = capsys.readouterr()
        assert code == 0, plotted.out
        assert plotted.err == ""
        assert plotted.out == f"{os.path.join(str(tmp_path), 'plot.svg')}\n"
        code = cli.main(["verify", *config])
        verified = capsys.readouterr()
    assert code == 0, verified.out
    assert verified.err == ""
    lines = verified.out.splitlines()
    assert tuple(line.split(":")[0] for line in lines[:-1]) == VERIFY_CHECKS[config[1]]
    assert all(re.fullmatch(r"\S+: residual=\S+ tol=\S+ PASS", line) for line in lines[:-1])
    assert lines[-1] == "all checks passed"


def test_main_carries_no_flag_over_between_calls(capsys):
    # the parser is built once per process; each call must parse into a
    # fresh namespace, with every default back in place
    code, out = run(capsys, "report", "--family", "threefb", "--special", "--pbeta", "0.3+0.2i")
    assert code == 0
    assert set(json.loads(out)) == {"ell1", "ell2", "L01", "theta"}
    code, out = run(capsys, "report", "--family", "heart")
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == 0.0
    assert payload["L01"] == pytest.approx(math.pi / 2.0, abs=1e-14)
    assert cli.main(["verify", "--family", "heart", "--grid", "-3,3,-3,3,1,61"]) == 2
    capsys.readouterr()
    code, out = run(capsys, "verify", "--family", "heart")
    assert code == 0
    assert out.splitlines()[-1] == "all checks passed"
    for argv in (["report", "--family", "heart"], ["verify", "--family", "threefb"]):
        fresh = cli._build_parser.__wrapped__().parse_args(argv)
        assert vars(cli._build_parser().parse_args(argv)) == vars(fresh)


# ---------------------------------------------------------------------------
# the array checks of run_checks against the scalar loops they replaced

def scalar_sample_points(mp, count, seed, box=3.0, clearance=0.05):
    rng = random.Random(seed)
    singular = [q for q, _, _ in metric.singular_points(mp) if q is not INFINITY]
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - q) > clearance for q in singular):
            out.append(z)
    return out


def scalar_density_via_developing(mp, z):
    """The developing route at one point, from |F| = developing_modulus squared."""
    f = forms.coefficient_at(mp.form, z)
    big_f = metric.developing_modulus(mp, z)
    u = big_f * big_f
    if math.isinf(u):
        return 0.0
    return 4.0 * u * (f.real * f.real + f.imag * f.imag) / (1.0 + u) ** 2


def scalar_phi_gradient_check(mp, z, h=1e-5):
    """The gradient identity for Phi at one point, from five phi_at calls."""
    dphi_dx = (metric.phi_at(mp, z + h) - metric.phi_at(mp, z - h)) / (2.0 * h)
    dphi_dy = (metric.phi_at(mp, z + 1j * h) - metric.phi_at(mp, z - 1j * h)) / (2.0 * h)
    phi = metric.phi_at(mp, z)
    f = forms.coefficient_at(mp.form, z)
    factor = phi * (4.0 - phi) / 4.0
    rx = dphi_dx - factor * 2.0 * f.real
    ry = dphi_dy - factor * (-2.0) * f.imag
    return math.hypot(rx, ry) / max(1.0, math.hypot(dphi_dx, dphi_dy))


def scalar_checks(cfg):
    """Residuals of the scattered-point checks and the curvature cells, one point at a time."""
    mp = cfg.metric_params()
    out = {}
    if cfg.family == "heart":
        beta = cfg.heart.beta
        gamma = 1.0 - beta
        worst = 0.0
        for z in scalar_sample_points(mp, 50, seed=7):
            lhs = forms.coefficient_at(mp.form, z)
            rhs = z / ((z - 1.0) * (z + gamma / beta))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        out["product-form"] = worst
    worst = 0.0
    for z in scalar_sample_points(mp, 300, seed=11):
        a = metric.density_at(mp, z)
        b = scalar_density_via_developing(mp, z)
        worst = max(worst, abs(a - b) / max(a, b, 1e-300))
    out["metric-equivalence"] = worst
    worst = 0.0
    for z in scalar_sample_points(mp, 100, seed=13):
        worst = max(worst, scalar_phi_gradient_check(mp, z))
    out["dphi-identity"] = worst
    singular = [q for q, _, _ in metric.singular_points(mp) if q is not INFINITY]
    g = cfg.grid
    cells = []
    for iy in range(0, g.ny, max(1, g.ny // 24)):
        for ix in range(0, g.nx, max(1, g.nx // 24)):
            z = complex(g.x_min + (g.x_max - g.x_min) * ix / (g.nx - 1),
                        g.y_min + (g.y_max - g.y_min) * iy / (g.ny - 1))
            if min(abs(z - q) for q in singular) > 0.1:
                cells.append(z)
    out["curvature"] = float(np.max(np.abs(metric.curvature_field(mp, np.array(cells)) - 1.0)))
    return out, cells


def verify_config(flags):
    return cli.build_config(cli._build_parser().parse_args(["verify", *flags]))


ORACLE_CONFIGS = {
    "heart-0.5": ("--family=heart", "--beta=0.5"),
    "heart-0.15": ("--family=heart", "--beta=0.15"),
    "heart-0.15-c0.4": ("--family=heart", "--beta=0.15", "--c=0.4"),
    "special-0.3+0.2i": ("--family=threefb", "--special", "--pbeta=0.3+0.2i"),
    "special-0.5": ("--family=threefb", "--special", "--pbeta=0.5"),
    "seeded-2": ("--family=threefb", "--alpha=0.5352380008372493", "--beta=0.5838368073194037",
                 "--gamma=1.0513278238693402", "--pbeta=-1.0607119402740133-1.3455340596180707i",
                 "--branch=plus", "--camp=0.3621265435836514"),
    "seeded-4": ("--family=threefb", "--alpha=1.262185317773029", "--beta=0.29647508489840785",
                 "--gamma=0.4115199854069033", "--pbeta=-1.2263597072434105+0.6926186654378874i",
                 "--branch=minus", "--camp=2.9675725092831224"),
}


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_array_checks_match_the_scalar_loops(name):
    cfg = verify_config(ORACLE_CONFIGS[name])
    mp = cfg.metric_params()
    expected, cells = scalar_checks(cfg)
    got = {check: (residual, bound) for check, residual, bound in cli.run_checks(cfg)}
    for check, residual in expected.items():
        array_residual, bound = got[check]
        assert residual <= bound, (check, residual)
        assert array_residual <= bound, (check, array_residual)
    assert cli._curvature_cells(mp, cfg.grid).tolist() == cells
    assert got["curvature"][0] == expected["curvature"]

    points = scalar_sample_points(mp, 300, seed=11)
    developed = metric._developing_density(mp, np.array(points))
    for z, value in zip(points, developed.tolist()):
        one_point = metric.density_via_developing(mp, z)
        assert abs(value - one_point) <= 1e-14 * max(value, one_point), z
        # f is a sum that may cancel, and numpy divides complex numbers with
        # other roundings than Python: bound the difference by the size of
        # the summands, as test_csv_matches_scalar_path does
        reference = scalar_density_via_developing(mp, z)
        big_f = metric.developing_modulus(mp, z)
        u = big_f * big_f
        terms = math.fsum(abs(p.residue / (z - p.position)) for p in mp.form.poles)
        assert abs(value - reference) <= 1e-14 * 4.0 * u / (1.0 + u) ** 2 * terms * terms, z
    points = scalar_sample_points(mp, 100, seed=13)
    residuals = metric._phi_gradient_residuals(mp, np.array(points))
    for z, value in zip(points, residuals.tolist()):
        assert abs(value - scalar_phi_gradient_check(mp, z)) <= 1e-9, z


@pytest.mark.parametrize("name", ["heart-0.5", "special-0.3+0.2i"])
@pytest.mark.parametrize("seed,count,clearance", [
    (7, 50, 0.05), (11, 300, 0.05), (13, 100, 0.05),
    # a clearance that rejects about a third of the candidates, so that
    # several batches are drawn
    (11, 300, 1.0),
])
def test_sample_points_are_the_scalar_draws(name, seed, count, clearance):
    mp = verify_config(ORACLE_CONFIGS[name]).metric_params()
    got = cli._sample_points(mp, count, seed=seed, clearance=clearance)
    assert got.tolist() == scalar_sample_points(mp, count, seed, clearance=clearance)
