import json
import os
import re
import subprocess
import sys
import warnings

import pytest

import conemetrics
from conemetrics import cli, families


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


def test_module_entry_point_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(os.path.abspath(conemetrics.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "conemetrics.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "verify" in done.stdout


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
