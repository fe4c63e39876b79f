"""Checks on each command's output, made from outside the program.

Each checker returns ``(attempted, failures, invalid)``.  ``failures`` lists
one dict per failed operation, naming the check or the error text; a verify
check is one operation, any other command is one.  ``invalid`` is the reason
the output itself is wrong or malformed (``None`` when it is well formed): an
invalid output fails every operation of the command and makes the run
incorrect, while a failure the program reports itself (a FAIL line, an
``{"error": ...}`` payload) only counts as failed.  Typed failures printed
instead of any output are counted by ``worker.outcome`` before these run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

from workloads import PLOT_MARKS, VERIFY_CHECKS

_CHECK_LINE = re.compile(r"^(\S+): residual=(\S+) tol=(\S+) (PASS|FAIL)$")

#: closed-form leg agreement; the program evaluates the same product formula
LEG_TOL = 1e-12
#: mirror configurations p_beta and conj(p_beta) must report the same triangle
CONJUGATE_TOL = 1e-7


def _invalid(op, attempted: int, reason: str):
    return attempted, [{"config": op.config.label, "command": op.command,
                        "invalid": reason}] * attempted, reason


def check_verify(op, code: int, stdout: str):
    names = VERIFY_CHECKS[op.config.family]
    lines = stdout.splitlines()
    if len(lines) != len(names) + 1:
        return _invalid(op, len(names), f"expected {len(names) + 1} lines, got {len(lines)}")
    failures = []
    for name, line in zip(names, lines):
        m = _CHECK_LINE.match(line)
        if m is None or m.group(1) != name:
            return _invalid(op, len(names), f"unexpected check line {line!r}")
        residual, tol, verdict = float(m.group(2)), float(m.group(3)), m.group(4)
        if verdict == "FAIL":
            failures.append({"config": op.config.label, "command": "verify",
                             "check": name, "residual": residual, "tol": tol})
        elif not residual <= tol:
            return _invalid(op, len(names), f"{name} PASS with residual {residual} > {tol}")
    summary = "all checks passed" if not failures else f"{len(failures)} check(s) failed"
    if lines[-1] != summary or code != (1 if failures else 0):
        return _invalid(op, len(names), f"summary {lines[-1]!r} / exit {code} disagree "
                                        f"with {len(failures)} FAIL lines")
    return len(names), failures, None


def _payload(code: int, stdout: str):
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return None, f"report output is not JSON: {stdout[:200]!r}"
    if not isinstance(payload, dict):
        return None, "report output is not a JSON object"
    if ("error" in payload) != (code == 1) or code not in (0, 1):
        return None, f"exit {code} disagrees with payload keys {sorted(payload)}"
    return payload, None


def _in_range(sides: dict) -> str | None:
    for name, v in sides.items():
        if not (isinstance(v, float) and 0.0 < v < math.pi):
            return f"side {name} = {v!r} outside (0, pi)"
    return None


def _triangle(a: float, b: float, c: float) -> str | None:
    if a > b + c + 1e-12 or b > a + c + 1e-12 or c > a + b + 1e-12:
        return f"sides {a}, {b}, {c} break the triangle inequality"
    return None


def _leg(params, point) -> float:
    from conemetrics import metric

    return math.pi - 2.0 * math.atan(metric.developing_modulus(params, point))


def check_report(op, code: int, stdout: str, seen: dict):
    """``seen`` maps each config to its earlier three-football report in the pass."""
    payload, reason = _payload(code, stdout)
    if reason is not None:
        return _invalid(op, 1, reason)
    if "error" in payload:
        return 1, [{"config": op.config.label, "command": "report",
                    "error": str(payload["error"])}], None
    cfg = op.config
    params = cfg.metric_params()
    if cfg.family == "heart":
        keys = ("c", "w0_abs", "L01", "L0inf")
        if sorted(payload) != sorted(keys):
            return _invalid(op, 1, f"heart report keys {sorted(payload)}")
        reason = _in_range({k: payload[k] for k in ("L01", "L0inf")})
        if reason is None and abs(payload["L01"] + payload["L0inf"] - math.pi) > LEG_TOL:
            reason = f"L01 + L0inf = {payload['L01'] + payload['L0inf']} is not pi"
        if reason is None and abs(payload["L0inf"] - _leg(params, 0.0)) > LEG_TOL:
            reason = f"L0inf = {payload['L0inf']} is not pi - 2 arctan|F(0)|"
        return (1, [], None) if reason is None else _invalid(op, 1, reason)

    keys = ("ell1", "ell2", "L01", "theta")
    if sorted(payload) != sorted(keys):
        return _invalid(op, 1, f"report keys {sorted(payload)}")
    reason = (_in_range({k: payload[k] for k in ("ell1", "ell2", "L01")})
              or _triangle(payload["ell1"], payload["ell2"], payload["L01"]))
    for name, point in (("ell1", 1.0), ("ell2", 0.0)):
        if reason is None and abs(payload[name] - _leg(params, point)) > LEG_TOL:
            reason = f"{name} = {payload[name]} is not pi - 2 arctan|F({point:g})|"
    theta = payload["theta"]
    if reason is None and not (isinstance(theta, float) and 0.0 <= theta <= math.pi):
        reason = f"theta = {theta!r} outside [0, pi]"
    mirror = seen.get(replace(cfg, pbeta=cfg.pbeta.conjugate()))
    if reason is None and mirror is not None:
        worst = max(abs(payload[k] - mirror[k]) for k in keys)
        if worst > CONJUGATE_TOL:
            reason = f"differs from the conjugate p_beta report by {worst:.3e}"
    seen[cfg] = payload
    return (1, [], None) if reason is None else _invalid(op, 1, reason)


def _path_printed(code: int, stdout: str, out_dir: str, name: str):
    path = os.path.join(out_dir, name)
    if code != 0:
        return None, f"exit {code}: {stdout.strip()[:200]}"
    if stdout.strip() != path:
        return None, f"printed {stdout.strip()!r}, expected {path!r}"
    return path, None


def check_sample(op, code: int, stdout: str, out_dir: str):
    from conemetrics import forms

    path, reason = _path_printed(code, stdout, out_dir, "sample.csv")
    if reason is not None:
        return _invalid(op, 1, reason)
    # lambda^2 = 0 is the right value at a zero of the differential (a cone
    # of angle > 2 pi); z = 0 is one in both families and lies on the grids
    zeros = [z for z, _ in forms.finite_zeros(op.config.metric_params().form)]
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != ["re", "im", "phi", "density", "curvature"]:
            return _invalid(op, 1, "unexpected CSV header")
        count = 0
        for row in rows:
            count += 1
            if len(row) != 5:
                return _invalid(op, 1, f"row {count} has {len(row)} fields")
            phi = float(row[2])
            if math.isnan(phi):
                continue
            density = float(row[3])
            ok = 0.0 < phi < 4.0 and math.isfinite(density) and density >= 0.0
            if ok and density == 0.0:
                z = complex(float(row[0]), float(row[1]))
                ok = any(abs(z - q) <= 1e-9 for q in zeros)
            if not ok:
                return _invalid(op, 1, f"row {count}: phi={row[2]} density={row[3]}")
    if count != op.cells:
        return _invalid(op, 1, f"{count} rows for a grid of {op.cells} cells")
    return 1, [], None


def check_plot(op, code: int, stdout: str, out_dir: str):
    path, reason = _path_printed(code, stdout, out_dir, "plot.svg")
    if reason is not None:
        return _invalid(op, 1, reason)
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return _invalid(op, 1, f"SVG does not parse: {exc}")
    marks = sum(1 for el in root.iter("{http://www.w3.org/2000/svg}circle")
                if el.get("class") == "mark")
    expected = PLOT_MARKS[op.config.family]
    if marks != expected:
        return _invalid(op, 1, f"{marks} marks, expected {expected}")
    return 1, [], None
