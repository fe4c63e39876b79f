"""Command-line front end: verify, report, sample, plot.

Configuration comes from flags, from a flat JSON config file mirroring the
flags (flags win), or both.  Exit codes: 0 all good, 1 a check or
computation failed, 2 invalid input.  All outputs (stdout JSON, CSV, SVG)
are byte-deterministic for a given configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass

import numpy as np

from . import families, forms, geodesics, metric, svg
from .errors import ConeMetricError, StencilHitsSingularity
from .families import AngleTriple, Branch, HeartParams
from .forms import INFINITY
from .metric import MetricParams


class ConfigError(Exception):
    """Invalid flag or config-file input (exit status 2)."""


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class GridSpec:
    x_min: float = -3.0
    x_max: float = 3.0
    y_min: float = -3.0
    y_max: float = 3.0
    nx: int = 61
    ny: int = 61

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ConfigError(f"grid needs nx, ny >= 2, got {self.nx}, {self.ny}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ConfigError("grid bounds must satisfy x_min < x_max and y_min < y_max")

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.x_max, self.y_min, self.y_max)


@dataclass(frozen=True)
class Tolerances:
    curvature_tol: float = 5e-3
    length_tol: float = 1e-6
    residual_tol: float = 1e-10

    def __post_init__(self):
        for name in ("curvature_tol", "length_tol", "residual_tol"):
            if not (getattr(self, name) > 0.0):
                raise ConfigError(f"tolerance {name} must be positive")


@dataclass
class RunConfig:
    family: str
    grid: GridSpec
    tolerances: Tolerances
    output_dir: str
    heart: HeartParams | None = None
    angles: AngleTriple | None = None
    p_beta: complex | None = None
    branch: Branch = Branch.MINUS
    c_amp: float = 1.0
    p_alpha_override: complex | None = None
    p_gamma_override: complex | None = None

    def metric_params(self) -> MetricParams:
        """Build the metric for this configuration.

        Pole overrides replace the solved positions so that deliberately
        corrupted triples can still be assembled and then caught by ``verify``.
        """
        if self.family == "heart":
            return families.heart_metric(self.heart)
        p_alpha, p_gamma = families.solve_pole_positions(self.angles, self.p_beta, self.branch)
        if self.p_alpha_override is not None:
            p_alpha = self.p_alpha_override
        if self.p_gamma_override is not None:
            p_gamma = self.p_gamma_override
        form = forms.make_form([
            (self.p_beta, -self.angles.beta),
            (p_alpha, self.angles.alpha + self.angles.beta),
            (p_gamma, self.angles.gamma),
        ])
        return MetricParams(form, 2.0 * math.log(self.c_amp))


def parse_complex(text: str) -> complex:
    """Parse the shell-safe a+bi / a-bi syntax (no spaces)."""
    s = str(text).strip()
    if not s or " " in s:
        raise ConfigError(f"malformed complex literal {text!r}")
    try:
        return complex(s.replace("i", "j").replace("I", "j"))
    except ValueError as exc:
        raise ConfigError(f"malformed complex literal {text!r}") from exc


def parse_grid(text: str) -> GridSpec:
    parts = str(text).split(",")
    if len(parts) != 6:
        raise ConfigError(f"grid must be x0,x1,y0,y1,nx,ny, got {text!r}")
    try:
        x0, x1, y0, y1 = (float(p) for p in parts[:4])
        nx, ny = (int(p) for p in parts[4:])
    except ValueError as exc:
        raise ConfigError(f"malformed grid {text!r}") from exc
    return GridSpec(x0, x1, y0, y1, nx, ny)


_FLAG_KEYS = ("family", "beta", "c", "alpha", "gamma", "pbeta", "camp", "branch",
              "special", "grid", "out", "palpha", "pgamma",
              "curvature_tol", "length_tol", "residual_tol")


def build_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, value in payload.items():
            if key not in _FLAG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            merged[key] = value

    family = merged.get("family")
    if family not in ("heart", "threefb"):
        raise ConfigError("--family must be heart or threefb")

    grid = parse_grid(merged["grid"]) if "grid" in merged else GridSpec()
    tols = Tolerances(
        curvature_tol=float(merged.get("curvature_tol", 5e-3)),
        length_tol=float(merged.get("length_tol", 1e-6)),
        residual_tol=float(merged.get("residual_tol", 1e-10)),
    )
    out_dir = str(merged.get("out", "."))

    cfg = RunConfig(family=family, grid=grid, tolerances=tols, output_dir=out_dir)
    try:
        if family == "heart":
            cfg.heart = HeartParams(beta=float(merged.get("beta", 0.5)),
                                    c_log=float(merged.get("c", 0.0)))
        else:
            if merged.get("special"):
                cfg.angles = families.special_case_angles(float(merged.get("alpha", 1.0)))
            else:
                try:
                    cfg.angles = AngleTriple(float(merged["alpha"]),
                                             float(merged["beta"]),
                                             float(merged["gamma"]))
                except KeyError as exc:
                    raise ConfigError(
                        "threefb needs --alpha/--beta/--gamma or --special") from exc
            if "pbeta" not in merged:
                raise ConfigError("threefb needs --pbeta")
            cfg.p_beta = parse_complex(merged["pbeta"])
            cfg.c_amp = float(merged.get("camp", 1.0))
            if cfg.c_amp <= 0.0:
                raise ConfigError("--camp must be positive")
            branch = merged.get("branch", "minus")
            try:
                cfg.branch = Branch(branch)
            except ValueError as exc:
                raise ConfigError(f"--branch must be plus or minus, got {branch!r}") from exc
            if "palpha" in merged:
                cfg.p_alpha_override = parse_complex(merged["palpha"])
            if "pgamma" in merged:
                cfg.p_gamma_override = parse_complex(merged["pgamma"])
    except ConeMetricError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# verification suite

def _sample_points(mp: MetricParams, count: int, seed: int = 12345,
                   box: float = 3.0, clearance: float = 0.05) -> list[complex]:
    rng = random.Random(seed)
    singular = [q for q, _, _ in metric.singular_points(mp) if q is not INFINITY]
    out: list[complex] = []
    while len(out) < count:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - q) > clearance for q in singular):
            out.append(z)
    return out


def run_checks(cfg: RunConfig) -> list[tuple[str, float, float]]:
    """All invariant checks for the configured family: (name, residual, tol)."""
    mp = cfg.metric_params()
    tol = cfg.tolerances
    checks: list[tuple[str, float, float]] = []

    residues = mp.form.residues
    res_sum = abs(math.fsum(residues) + forms.residue_at_infinity(mp.form))
    checks.append(("residue-sum", res_sum / max(1.0, sum(abs(r) for r in residues)), 1e-14))

    if cfg.family == "heart":
        beta = cfg.heart.beta
        gamma = 1.0 - beta
        worst = 0.0
        for z in _sample_points(mp, 50, seed=7):
            lhs = forms.coefficient_at(mp.form, z)
            rhs = z / ((z - 1.0) * (z + gamma / beta))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        checks.append(("product-form", worst, 1e-12))
        zeros = forms.finite_zeros(mp.form)
        zero_defect = max(abs(root) for root, _ in zeros) if len(zeros) == 1 else math.inf
        checks.append(("zero-placement", zero_defect, 1e-9))
    else:
        positions = mp.form.positions
        r0, r1 = families.constraint_residual(
            cfg.angles, positions[1], positions[0], positions[2])
        checks.append(("constraint-residual", max(r0, r1), tol.residual_tol))
        zeros = forms.finite_zeros(mp.form)
        if len(zeros) == 2:
            zero_defect = max(abs(zeros[0][0]), abs(zeros[1][0] - 1.0))
        else:
            zero_defect = math.inf
        checks.append(("zero-placement", zero_defect, 1e-9))

    pts = _sample_points(mp, 300, seed=11)
    worst = 0.0
    for z in pts:
        a = metric.density_at(mp, z)
        b = metric.density_via_developing(mp, z)
        worst = max(worst, abs(a - b) / max(a, b, 1e-300))
    checks.append(("metric-equivalence", worst, 1e-12))

    worst = 0.0
    for z in _sample_points(mp, 100, seed=13):
        worst = max(worst, metric.phi_gradient_check(mp, z))
    checks.append(("dphi-identity", worst, 1e-6))

    singular = [q for q, _, _ in metric.singular_points(mp) if q is not INFINITY]
    g = cfg.grid
    cells = []
    for iy in range(0, g.ny, max(1, g.ny // 24)):
        for ix in range(0, g.nx, max(1, g.nx // 24)):
            z = complex(g.x_min + (g.x_max - g.x_min) * ix / (g.nx - 1),
                        g.y_min + (g.y_max - g.y_min) * iy / (g.ny - 1))
            if min(abs(z - q) for q in singular) > 0.1:
                cells.append(z)
    worst = math.inf
    if cells:
        kappa = metric.curvature_field(mp, np.array(cells))
        hit = np.flatnonzero(np.isnan(kappa))
        if hit.size:
            raise StencilHitsSingularity(f"stencil at {cells[hit[0]]} touched a singular point")
        worst = float(np.max(np.abs(kappa - 1.0)))
    checks.append(("curvature", worst, tol.curvature_tol))

    worst = 0.0
    marked = metric.singular_points(mp)
    finite = [q for q, _, _ in marked if q is not INFINITY]
    for point, kind, coefficient in marked:
        # the estimate errs by about 0.26 (eps / d)^2, d the chart distance
        # from the point to the nearest other singular point
        if point is INFINITY:
            d = 1.0 / max(abs(q) for q in finite)
        else:
            d = min(abs(q - point) for q in finite if q != point)
        eps = max(1e-5, min(1e-3, d / 20.0))
        est = metric.cone_angle_estimate(mp, point, eps=eps, n=512)
        expected = 2.0 * math.pi * coefficient
        worst = max(worst, abs(est - expected) / expected)
    checks.append(("cone-angles", worst, 1e-2))

    if cfg.family == "heart":
        hp = cfg.heart
        l01 = geodesics.radial_length(mp, 0.0, 1.0)
        lgb = geodesics.radial_length(mp, 0.0, complex(-hp.gamma / hp.beta, 0.0))
        linf = geodesics.radial_length(mp, 0.0, INFINITY)
        closed = 2.0 * math.atan(families.heart_apex_image(hp))
        residual = max(abs(l01 + linf - math.pi), abs(l01 - lgb), abs(l01 - closed))
        trace = geodesics.trace_radial_preimage(mp, 0.0, 1.0, n=200)
        residual_trace = abs(trace.length - l01)
        checks.append(("length-identities", residual, tol.length_tol))
        checks.append(("traced-length", residual_trace, max(1e-6, tol.length_tol)))
    else:
        p_alpha = mp.form.positions[1]
        s1 = (geodesics.radial_length(mp, 0.0, p_alpha)
              + geodesics.radial_length(mp, 0.0, INFINITY))
        s2 = (geodesics.radial_length(mp, 1.0, p_alpha)
              + geodesics.radial_length(mp, 1.0, INFINITY))
        residual = max(abs(s1 - math.pi), abs(s2 - math.pi))
        checks.append(("length-identities", residual, tol.length_tol))

    return checks


def cmd_verify(cfg: RunConfig) -> int:
    failures = 0
    try:
        checks = run_checks(cfg)
    except ConeMetricError as exc:
        print(f"verification aborted: {exc}")
        return 1
    for name, residual, bound in checks:
        ok = residual <= bound
        failures += 0 if ok else 1
        print(f"{name}: residual={residual:.3e} tol={bound:.1e} {'PASS' if ok else 'FAIL'}")
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# report / sample / plot

def cmd_report(cfg: RunConfig) -> int:
    try:
        if cfg.family == "heart":
            hp = cfg.heart
            mp = families.heart_metric(hp)
            w0 = families.heart_apex_image(hp)
            payload = {
                "c": hp.c_log,
                "w0_abs": w0,
                "L01": geodesics.radial_length(mp, 0.0, 1.0),
                "L0inf": geodesics.radial_length(mp, 0.0, INFINITY),
            }
            print(json.dumps(payload))
        else:
            tf = families.make_three_football(cfg.angles, cfg.p_beta, cfg.branch, cfg.c_amp)
            report = geodesics.decomposition_report(tf)
            print(report.to_json())
    except ConeMetricError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    mp = cfg.metric_params()
    g = cfg.grid
    path = os.path.join(cfg.output_dir, "sample.csv")
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        with open(path, "w") as fh:
            metric.write_density_grid_csv(mp, g.bounds, g.nx, g.ny, fh)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


def _plot_traces(canvas: svg.SvgCanvas, mp: MetricParams, targets) -> None:
    """targets: iterable of (endpoint, color, launches).

    ``launches`` lists the ``(start, direction)`` pairs to try in turn: the
    zero the trace leaves, and its launch direction there (None picks one by
    the endpoint's direction).  The first trace that arrives is drawn.  When
    none arrives, the warning names the failure of the first launch.
    """
    for target, color, launches in targets:
        clip = 10.0 if target is INFINITY else None
        failure = None
        for start, direction in launches:
            try:
                path = geodesics.trace_radial_preimage(
                    mp, start, target, n=240, launch_dir=direction, clip_radius=clip)
            except ConeMetricError as exc:
                failure = failure or exc
                continue
            canvas.add_polyline(path.samples, color, "geodesic")
            break
        else:
            canvas.add_comment(f"warning: trace toward {target} failed: {failure}")


def _pole_launches(mp: MetricParams, start: float, pole: complex) -> list:
    """Launches from the zero ``start`` toward a pole: the default pick, then the opposite."""
    residue = next(p.residue for p in mp.form.poles if abs(p.position - pole) <= 1e-9)
    return [(start, None), (start, -geodesics._default_launch(mp, start, pole, residue < 0.0))]


def _log_modulus(mp: MetricParams, z: np.ndarray) -> np.ndarray:
    """log|F| = c/2 + sum_k r_k log|z - p_k| over a complex array.

    nan only where |F| is 0 or infinite: unlike the metric kernel, no
    ``POLE_GUARD`` mask, since the level sets may pass right by a pole.
    """
    form = mp.form
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * mp.c_log + sum(
            r * np.log(np.abs(z - p)) for p, r in zip(form.positions, form.residues))
    return np.where(np.isfinite(out), out, np.nan)


def cmd_plot(cfg: RunConfig) -> int:
    mp = cfg.metric_params()
    g = cfg.grid
    canvas = svg.SvgCanvas(bounds=g.bounds)

    xs = [g.x_min + (g.x_max - g.x_min) * i / (g.nx - 1) for i in range(g.nx)]
    ys = [g.y_min + (g.y_max - g.y_min) * j / (g.ny - 1) for j in range(g.ny)]
    nodes = np.empty((g.ny, g.nx), dtype=complex)
    nodes.real = xs
    nodes.imag = np.array(ys)[:, None]
    # the anchor through the same expression, so that a node at 0 lies on level 0 exactly
    anchor = float(_log_modulus(mp, np.zeros(1, dtype=complex))[0])
    levels = [anchor + k * math.log(2.0) for k in range(-3, 4)]
    svg.add_level_sets(canvas, _log_modulus(mp, nodes), xs, ys, levels)

    if cfg.family == "heart":
        hp = cfg.heart
        pole_gb = complex(-hp.gamma / hp.beta, 0.0)
        inc = geodesics.launch_directions(mp, 0.0, increasing=True)
        _plot_traces(canvas, mp, [
            (1.0 + 0.0j, "#cc2222", _pole_launches(mp, 0.0, 1.0 + 0.0j)),
            (pole_gb, "#22aa44", _pole_launches(mp, 0.0, pole_gb)),
            (INFINITY, "#cc2222", [(0.0, inc[0])]),
            (INFINITY, "#22aa44", [(0.0, inc[1])]),
        ])
        canvas.add_mark(0.0 + 0.0j, "0")
        canvas.add_mark(1.0 + 0.0j, "1")
        canvas.add_mark(pole_gb, "-gamma/beta")
        canvas.add_mark(None, "inf")
    else:
        p_beta, p_alpha, p_gamma = mp.form.positions
        inc = geodesics.launch_directions(mp, 0.0, increasing=True)
        # a pole that no radial geodesic from 0 reaches may still be reached
        # from the zero at 1, so the launches from 1 follow those from 0
        _plot_traces(canvas, mp, [
            (pole, color, _pole_launches(mp, 0.0, pole) + _pole_launches(mp, 1.0, pole))
            for pole, color in ((p_alpha, "#cc2222"), (p_gamma, "#cc2222"), (p_beta, "#22aa44"))
        ] + [(INFINITY, "#22aa44", [(0.0, u) for u in inc])])
        canvas.add_mark(0.0 + 0.0j, "0")
        canvas.add_mark(1.0 + 0.0j, "1")
        canvas.add_mark(p_alpha, "P_alpha")
        canvas.add_mark(p_beta, "P_beta")
        canvas.add_mark(p_gamma, "P_gamma")
        canvas.add_mark(None, "inf")

    path = os.path.join(cfg.output_dir, "plot.svg")
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(canvas.render())
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conemetrics",
        description="Construct and verify spherical conical metrics from "
                    "third-kind differentials")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "run the invariant suites and exit 0 only if all pass"),
        ("report", "emit the geodesic decomposition report as JSON"),
        ("sample", "write the phi/density/curvature grid as CSV"),
        ("plot", "write an SVG with marks, level sets and traced geodesics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--family", choices=("heart", "threefb"))
        p.add_argument("--beta", type=float)
        p.add_argument("--c", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--pbeta", type=str)
        p.add_argument("--camp", type=float)
        p.add_argument("--branch", choices=("plus", "minus"))
        p.add_argument("--special", action="store_true")
        p.add_argument("--grid", type=str, metavar="x0,x1,y0,y1,nx,ny")
        p.add_argument("--out", type=str, metavar="DIR")
        p.add_argument("--config", type=str, metavar="FILE")
        p.add_argument("--palpha", type=str, help="override the solved P_alpha (diagnostic)")
        p.add_argument("--pgamma", type=str, help="override the solved P_gamma (diagnostic)")
    return parser


#: the long options that take no value
_SWITCHES = ("--special", "--help")


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -value`` as ``--flag=-value``.

    argparse reads a token that starts with '-' as an option unless it looks
    like a plain negative number, so grids such as ``-3,3,-3,3,61,61`` and
    complex literals such as ``-0.5+0.2i`` would be rejected after a space.
    No value starts with ``--``.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev and prev not in _SWITCHES
                and token.startswith("-") and not token.startswith("--")):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_dash_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "report":
            return cmd_report(cfg)
        if args.command == "sample":
            return cmd_sample(cfg)
        return cmd_plot(cfg)
    except ConeMetricError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
