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
from oracles import density_at, phi_at

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


@pytest.mark.parametrize("command", ["verify", "report", "sample", "plot"])
def test_each_command_has_help_that_names_every_command(capsys, command):
    assert cli.main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: conemetrics")
    for name in ("verify", "report", "sample", "plot"):
        assert re.search(rf"^  {name} ", out, re.MULTILINE), (name, out)


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["--family=heart"], "the following arguments are required: command"),
    (["check", "--family=heart"], "invalid choice: 'check'"),
    (["verify", "report", "--family=heart"], "unrecognized arguments: report"),
])
def test_a_missing_or_unknown_command_exits_2(capsys, argv, message):
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("before,after", [
    (["--family", "threefb", "report"], ["report", "--family", "threefb"]),
    (["--grid", "-3,3,-3,3,5,5", "--c", "-2", "sample", "--family=heart"],
     ["sample", "--family=heart", "--grid", "-3,3,-3,3,5,5", "--c", "-2"]),
    (["--special", "--pbeta", "-0.5+0.2i", "plot", "--family=threefb"],
     ["plot", "--family=threefb", "--special", "--pbeta=-0.5+0.2i"]),
])
def test_an_option_before_the_command_parses_as_after_it(before, after):
    parser = cli._build_parser()
    first = parser.parse_args(cli._attach_dash_values(before))
    assert vars(first) == vars(parser.parse_args(cli._attach_dash_values(after)))
    assert first.command == after[0]


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


def test_verify_lifts_no_trace_samples(monkeypatch, capsys):
    # traced-length reads only the trace's length: its one lift is the
    # arrival point, and a second lift (the sample grid) raises
    from conemetrics import geodesics

    node_lift = geodesics._node_lift

    def lift_once(*args):
        lift = node_lift(*args)
        calls = []

        def guarded(s):
            if calls:
                raise AssertionError("verify lifted the trace's samples")
            calls.append(s)
            return lift(s)

        return guarded

    monkeypatch.setattr(geodesics, "_node_lift", lift_once)
    code, out = run(capsys, "verify", "--family=heart", "--beta=0.5", "--c=0.0")
    assert code == 0, out
    assert re.search(r"^traced-length: residual=\S+ tol=\S+ PASS$", out, re.M), out


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
    # P_beta and P_gamma 0.0072 apart with residues -0.102 and +0.103, and
    # |P_alpha| ~ 1567: lambda^2 ~ 1e-15 at the worst curvature cells
    ("--family", "threefb", "--alpha", "0.06293631690050941", "--beta", "0.1023944798902496",
     "--gamma", "0.1029593015661615", "--pbeta", "-2.0490984497023925+0.7996405131514738i",
     "--branch", "minus", "--camp", "0.0021141979852889285"),
], ids=["special-0.3+0.2i", "heart-0.15", "heart-0.3", "crowded-poles", "crowded-infinity",
        "cancelling-residues"])
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


@pytest.mark.parametrize("payload,key", [
    ({"family": "heart", "beta": "abc"}, "beta"),
    ({"family": "threefb", "special": True, "pbeta": "0.3+0.2i", "camp": None}, "camp"),
    ({"family": "heart", "curvature_tol": "x"}, "curvature_tol"),
])
def test_wrong_typed_config_values_exit_2(capsys, tmp_path, payload, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    assert cli.main(["verify", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration: ")
    assert key in captured.err


@pytest.mark.parametrize("flags,key", [
    (["--family=heart", "--c=nan"], "c"),
    (["--family=heart", "--beta=-inf"], "beta"),
    (["--family=threefb", "--special", "--pbeta=0.3+0.2i", "--camp=nan"], "camp"),
    (["--family=threefb", "--special", "--pbeta=0.3+0.2i", "--camp=inf"], "camp"),
])
def test_non_finite_numbers_exit_2(capsys, flags, key):
    assert cli.main(["verify", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid configuration: {key} must be finite")


def test_non_finite_config_file_number_exits_2(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"family": "heart", "curvature_tol": NaN}')
    assert cli.main(["verify", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration: curvature_tol must be finite")


@pytest.mark.parametrize("command", ["sample", "plot"])
@pytest.mark.parametrize("grid", ["-inf,3,-3,3,5,5", "-3,3,-3,inf,5,5", "nan,3,-3,3,5,5",
                                  "-1e308,1e308,-3,3,5,5", "-3,3,-1e308,1e308,5,5"])
@pytest.mark.parametrize("by_file", [False, True], ids=["flag", "config"])
def test_non_finite_grid_bounds_or_spans_exit_2(capsys, tmp_path, command, grid, by_file):
    # an infinite bound, or finite bounds whose span overflows, would put
    # nan or inf in the CSV and the SVG
    out = tmp_path / "out"
    argv = [command, "--family=heart", f"--out={out}"]
    if by_file:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": grid}))
        argv.append(f"--config={config}")
    else:
        argv.append(f"--grid={grid}")
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration: grid bounds and spans must be finite")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--pbeta=nan+0i", "--pbeta=inf+0i", "--pbeta=0.3-infi",
                                  "--palpha=nan+0.5i", "--pgamma=-inf+0i"])
def test_non_finite_complex_literals_exit_2(capsys, flag):
    flags = ["--family=threefb", "--special"]
    flags += [flag] if flag.startswith("--pbeta") else ["--pbeta=0.3+0.2i", flag]
    assert cli.main(["verify", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    literal = flag.split("=", 1)[1]
    assert captured.err == f"invalid configuration: complex literal {literal!r} is not finite\n"


@pytest.mark.parametrize("text,value", [
    ("0.3+0.2i", 0.3 + 0.2j), ("0.3-0.2I", 0.3 - 0.2j), ("-2i", -2j), ("0.5", 0.5 + 0j),
    ("1e-3+4e2i", 0.001 + 400j), ("0.3+0.2j", 0.3 + 0.2j),
])
def test_parse_complex_reads_the_trailing_unit_only(text, value):
    assert cli.parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "0.3 + 0.2i", "0.3+0.2ii", "i0.3", "0.3+0.2k"])
def test_parse_complex_rejects_malformed_literals(text):
    with pytest.raises(cli.ConfigError, match="malformed complex literal"):
        cli.parse_complex(text)


# ---------------------------------------------------------------------------
# the array checks of run_checks against the scalar loops they replaced

def scalar_sample_points(mp, count, seed, box=3.0, clearance=0.05, rng=None):
    rng = random.Random(seed) if rng is None else rng
    singular = [m.position for m in mp.marked if m.kind != "infinity"]
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - q) > clearance for q in singular):
            out.append(z)
    return out


def scalar_density_via_developing(mp, z):
    """The developing route at one point, from |F| = developing_modulus squared."""
    f = forms._coefficient(mp.form, z)
    big_f = metric.developing_modulus(mp, z)
    u = big_f * big_f
    if math.isinf(u):
        return 0.0
    return 4.0 * u * (f.real * f.real + f.imag * f.imag) / (1.0 + u) ** 2


def scalar_phi_gradient_check(mp, z, h=1e-5):
    """The gradient identity for Phi at one point, from five phi_at calls."""
    dphi_dx = (phi_at(mp, z + h) - phi_at(mp, z - h)) / (2.0 * h)
    dphi_dy = (phi_at(mp, z + 1j * h) - phi_at(mp, z - 1j * h)) / (2.0 * h)
    phi = phi_at(mp, z)
    f = forms._coefficient(mp.form, z)
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
            lhs = forms._coefficient(mp.form, z)
            rhs = z / ((z - 1.0) * (z + gamma / beta))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        out["product-form"] = worst
    worst = 0.0
    for z in scalar_sample_points(mp, 300, seed=11):
        a = density_at(mp, z)
        b = scalar_density_via_developing(mp, z)
        worst = max(worst, abs(a - b) / max(a, b, 1e-300))
    out["metric-equivalence"] = worst
    worst = 0.0
    for z in scalar_sample_points(mp, 100, seed=13):
        worst = max(worst, scalar_phi_gradient_check(mp, z))
    out["dphi-identity"] = worst
    singular = [m.position for m in mp.marked if m.kind != "infinity"]
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
        one_point = float(metric._developing_density(mp, np.array([z]))[0])
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
    (11, 300, 1.0), (12345, 50, 0.05),
])
def test_sample_points_are_the_scalar_draws(monkeypatch, name, seed, count, clearance):
    mp = verify_config(ORACLE_CONFIGS[name]).metric_params()
    reference = random.Random(seed)
    expected = scalar_sample_points(mp, count, seed, clearance=clearance, rng=reference)
    made = []

    class Recorded(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(cli.random, "Random", Recorded)
    got = cli._sample_points(mp, count, seed=seed, clearance=clearance)
    assert got.tolist() == expected
    # the batches' getrandbits calls leave the generator where the draws did
    assert len(made) == 1
    assert made[0].getstate() == reference.getstate()


def test_verify_abort_names_the_check_that_raised(capsys):
    # P_alpha moved 1e-5 from P_beta: the cone-angle contour of P_beta would
    # pass within 3 eps of P_alpha, so the estimate refuses to run
    code, out = run(capsys, "verify", "--family=threefb", "--special", "--pbeta=0.3+0.2i",
                    "--palpha=0.30001+0.2i")
    assert code == 1
    assert out.startswith("verification aborted: cone-angles: another singular point within"), out
    code, out = run(capsys, "verify", "--family=threefb", "--special", "--pbeta=0.3+0.2i",
                    "--palpha=0.3+0.2i")
    assert code == 1
    assert out == "verification aborted: metric: poles 0 and 1 share position (0.3+0.2j)\n"


@pytest.mark.parametrize("flag", ["--palpha=0.3000000001+0.2i", "--pgamma=0.3000000001+0.2i"])
def test_verify_aborts_on_a_mark_within_1e_9_of_another(capsys, flag):
    # P_beta's contour would pass within 3 eps of a pole 1e-10 away: each
    # mark is its own record, however close, so the crowding check sees it
    code, out = run(capsys, "verify", "--family=threefb", "--special", "--pbeta=0.3+0.2i", flag)
    assert code == 1
    assert out == ("verification aborted: cone-angles: another singular point within 3*eps "
                   "of (0.3+0.2j)\n")


@pytest.mark.parametrize("flag", ["--palpha=5+5i", "--pgamma=5+5i"])
def test_report_refuses_a_corrupted_override(capsys, flag):
    # report builds its triple with the override, and the football's form
    # refuses a triple that misses the zero placement
    code, out = run(capsys, "report", "--family=threefb", "--special", "--pbeta=0.3+0.2i", flag)
    assert code == 1
    assert json.loads(out)["error"].startswith("pole triple misses the zero placement")


def test_report_with_the_solved_companions_is_the_plain_report(capsys):
    p_beta = complex(-0.5, 0.2)
    p_alpha, p_gamma = families.solve_pole_positions(
        families.special_case_angles(), p_beta, families.Branch.MINUS)
    common = ["report", "--family", "threefb", "--special", "--pbeta", literal(p_beta)]
    code, plain = run(capsys, *common)
    assert code == 0
    code, out = run(capsys, *common, "--palpha", literal(p_alpha), "--pgamma", literal(p_gamma))
    assert code == 0
    assert out == plain


@pytest.mark.parametrize("alpha", ["1e150", "1e200"])
@pytest.mark.parametrize("command", ["verify", "report", "sample", "plot"])
def test_overflowing_pole_quadratic_exits_1(capsys, tmp_path, command, alpha):
    # the quadratic's coefficients grow as alpha^2: at 1e150 its discriminant
    # overflows, at 1e200 the coefficients themselves
    code = cli.main([command, "--family=threefb", "--special", "--pbeta=0.3+0.2i",
                     f"--alpha={alpha}", f"--out={tmp_path}"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "the pole quadratic" in out + err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "report", "sample", "plot"])
def test_underflowing_pole_quadratic_exits_1(capsys, tmp_path, command):
    # beta (alpha + gamma) ~ 1e-181: the discriminant at P_beta = 0, its square,
    # underflows to 0
    code = cli.main([command, "--family=threefb", "--alpha=3.294301746450613e-218",
                     "--beta=9.320126219987355e-67", "--gamma=1.214672597452364e-115",
                     "--pbeta=-4.865757101279949e+18-3.681733337518725e+18i", f"--out={tmp_path}"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "the pole quadratic" in out + err
    assert "Traceback" not in err


def test_report_refuses_a_heart_apex_beyond_the_float_range(capsys):
    code, out = run(capsys, "report", "--family=heart", "--c=1420")
    assert code == 1
    assert json.loads(out) == {
        "error": "|F(0)| = e^(c/2) (gamma/beta)^gamma overflows at c = 1420.0"}


def test_verify_aborts_where_the_density_underflows(capsys):
    # e^(c/2) ~ e^710: lambda^2 underflows to 0 on the curvature lattice
    code, out = run(capsys, "verify", "--family=heart", "--c=1420")
    assert code == 1
    assert out == "verification aborted: curvature: stencil at (-3-3j) touched a singular point\n"


@pytest.mark.parametrize("c,failure", [
    ("1419", "at the arrival overflows"),  # the traces to infinity
    ("1420", "e^(c/2) overflows at c = 1420.0"),
    ("-1500", "at the launch point"),  # |F| underflows to 0 there
], ids=["1419", "1420", "-1500"])
def test_plot_warns_where_the_developing_modulus_leaves_the_float_range(capsys, tmp_path, c,
                                                                         failure):
    code = cli.main(["plot", "--family=heart", f"--c={c}", f"--out={tmp_path}"])
    _, err = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in err
    warnings = re.findall(r"<!-- warning: trace toward .* failed: (.*) -->",
                          (tmp_path / "plot.svg").read_text())
    assert warnings and all(failure in w for w in warnings), warnings


def wide_hearts(count):
    """The first ``count`` hearts of random.Random(20261019), beta in (0.005, 0.995)
    and c in (-20, 20); all of the first 400 pass verify."""
    rng = random.Random(20261019)
    return [(rng.uniform(0.005, 0.995), rng.uniform(-20.0, 20.0)) for _ in range(count)]


def test_verify_passes_on_a_wide_box_of_hearts(capsys):
    # beta near 1 puts the pole -gamma/beta next to the cone at 0, and a large
    # |c| moves the whole traced-length trace toward F = 0 or infinity
    for beta, c in wide_hearts(40):
        code, out = run(capsys, "verify", "--family=heart", f"--beta={beta!r}", f"--c={c!r}")
        assert code == 0, (beta, c, out)


@pytest.mark.parametrize("c", ["100", "-100", "360", "400", "600", "680", "700"])
@pytest.mark.parametrize("beta", ["0.15", "0.5", "0.85"])
def test_verify_passes_on_hearts_with_a_large_c(capsys, beta, c):
    # at the vertex that develops to 0 or infinity, rho = 2 arctan e^{sigma s / 2}
    # rounds to pi for a large |s|, so sin(rho) kept no digit; the cone law reads
    # sin(rho) = sech(s / 2) instead.  From c = 355 the developing route's
    # (1 + u)^2 overflows, and it divides by 1 + u twice instead
    code, out = run(capsys, "verify", "--family=heart", f"--beta={beta}", f"--c={c}")
    assert code == 0, out
    assert out.endswith("all checks passed\n"), out
    for check in ("cone-angles", "metric-equivalence"):
        assert re.search(rf"^{check}: residual=\S+ tol=\S+ PASS$", out, re.MULTILINE), out


def test_sample_in_parts_writes_the_one_part_file_and_leaves_no_child(capsys, tmp_path,
                                                                      monkeypatch):
    # the grid of the grid-sample workload, written on one CPU and on two
    argv = ["sample", "--family=threefb", "--special", "--pbeta=0.3+0.2i",
            "--grid=-3,3,-3,3,201,201"]
    written = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        out = tmp_path / str(cpus)
        assert run(capsys, *argv, f"--out={out}") == (0, f"{out / 'sample.csv'}\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        written.append((out / "sample.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 1 + 201 * 201


def test_sample_exits_2_when_a_part_fails(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, kernel = os.getpid(), metric._evaluate

    def failing_in_the_child(params, z):
        if os.getpid() != parent:
            raise MemoryError
        return kernel(params, z)

    monkeypatch.setattr(metric, "_evaluate", failing_in_the_child)
    code = cli.main(["sample", "--family=heart", "--grid=-3,3,-3,3,201,201", f"--out={tmp_path}"])
    _, err = capsys.readouterr()
    assert code == 2
    assert err == (f"cannot write {tmp_path / 'sample.csv'}: part 1 of 2 of the grid "
                   "(rows 100 to 200) failed: exit code 1\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
