"""Command-line front end: verify, report, sample, plot.

Configuration comes from flags, from a flat JSON config file mirroring the
flags (flags win), or both.  Exit codes: 0 all good, 1 a check or
computation failed, 2 invalid input.  All outputs (stdout JSON, CSV, SVG)
are byte-deterministic for a given configuration.
"""

from __future__ import annotations

import argparse
import cmath
import functools
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
        if not all(map(math.isfinite, (*self.bounds, self.x_max - self.x_min,
                                       self.y_max - self.y_min))):
            raise ConfigError(f"grid bounds and spans must be finite, got {self.bounds}")
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
        tf = self.football()
        form = forms.make_form([
            (tf.p_beta, -self.angles.beta),
            (tf.p_alpha, self.angles.alpha + self.angles.beta),
            (tf.p_gamma, self.angles.gamma),
        ])
        return MetricParams(form, tf.c_log)

    def football(self) -> families.ThreeFootballParams:
        """The football at P_beta with the solved companions, or their overrides."""
        p_alpha, p_gamma = families.solve_pole_positions(self.angles, self.p_beta, self.branch)
        return families.ThreeFootballParams(
            self.angles, self.p_beta, self.branch, self.c_amp,
            p_alpha if self.p_alpha_override is None else self.p_alpha_override,
            p_gamma if self.p_gamma_override is None else self.p_gamma_override)


def parse_complex(text: str) -> complex:
    """Parse the shell-safe a+bi / a-bi syntax (no spaces) into a finite complex.

    Only a trailing imaginary unit ``i`` or ``I`` is read as ``j``, so that
    the ``i`` of ``inf`` stays as it is.
    """
    s = str(text).strip()
    if not s or " " in s:
        raise ConfigError(f"malformed complex literal {text!r}")
    if s[-1] in "iI":
        s = s[:-1] + "j"
    try:
        value = complex(s)
    except ValueError as exc:
        raise ConfigError(f"malformed complex literal {text!r}") from exc
    if not cmath.isfinite(value):
        raise ConfigError(f"complex literal {text!r} is not finite")
    return value


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


def _number(merged: dict, key: str, default: float | None = None) -> float:
    """``merged[key]`` as a finite float (``default`` if given and the key is absent)."""
    value = merged[key] if default is None else merged.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


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
        curvature_tol=_number(merged, "curvature_tol", 5e-3),
        length_tol=_number(merged, "length_tol", 1e-6),
        residual_tol=_number(merged, "residual_tol", 1e-10),
    )
    out_dir = str(merged.get("out", "."))

    cfg = RunConfig(family=family, grid=grid, tolerances=tols, output_dir=out_dir)
    try:
        if family == "heart":
            cfg.heart = HeartParams(beta=_number(merged, "beta", 0.5),
                                    c_log=_number(merged, "c", 0.0))
        else:
            if merged.get("special"):
                cfg.angles = families.special_case_angles(_number(merged, "alpha", 1.0))
            else:
                try:
                    cfg.angles = AngleTriple(_number(merged, "alpha"),
                                             _number(merged, "beta"),
                                             _number(merged, "gamma"))
                except KeyError as exc:
                    raise ConfigError(
                        "threefb needs --alpha/--beta/--gamma or --special") from exc
            if "pbeta" not in merged:
                raise ConfigError("threefb needs --pbeta")
            cfg.p_beta = parse_complex(merged["pbeta"])
            cfg.c_amp = _number(merged, "camp", 1.0)
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

def _clear_of_marks(mp: MetricParams, z: np.ndarray, clearance: float) -> np.ndarray:
    """Mask of the points of ``z`` farther than ``clearance`` from every finite marked point."""
    finite = np.array([m.position for m in mp.marked if m.kind != "infinity"])
    return np.all(np.abs(z[:, None] - finite) > clearance, axis=1)


def _sample_points(mp: MetricParams, count: int, seed: int = 12345,
                   box: float = 3.0, clearance: float = 0.05) -> np.ndarray:
    """``count`` points of the box farther than ``clearance`` from every finite marked point.

    Candidates are ``complex(uniform, uniform)`` draws of ``random.Random(seed)``,
    accepted in order.  Each batch draws only as many candidates as points
    are still missing, so no candidate past the last accepted one is drawn.
    A batch takes all its words in one ``rng.getrandbits`` call and maps each
    pair ``(a, b)`` of 32-bit words to ``((a >> 5) 2^26 + (b >> 6)) / 2^53``,
    as ``rng.random()`` does, then to ``a + (b - a) u`` as ``random.uniform``
    does: the same floats, and the same state of ``rng`` after them.
    """
    rng = random.Random(seed)
    out = np.empty(0, dtype=complex)
    while out.size < count:
        n = 2 * (count - out.size)
        words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
        u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0
        draws = -box + (box - -box) * u
        z = np.empty(n // 2, dtype=complex)
        z.real = draws[0::2]
        z.imag = draws[1::2]
        out = np.concatenate([out, z[_clear_of_marks(mp, z, clearance)]])
    return out


def _curvature_cells(mp: MetricParams, g: GridSpec) -> np.ndarray:
    """The grid nodes at stride ``max(1, n // 24)`` on each axis (31 x 31 on the
    default grid), less those within 0.1 of a finite marked point."""
    ix = np.arange(0, g.nx, max(1, g.nx // 24))
    iy = np.arange(0, g.ny, max(1, g.ny // 24))
    z = np.empty((iy.size, ix.size), dtype=complex)
    z.real = g.x_min + (g.x_max - g.x_min) * ix / (g.nx - 1)
    z.imag = g.y_min + (g.y_max - g.y_min) * iy[:, None] / (g.ny - 1)
    z = z.ravel()
    return z[_clear_of_marks(mp, z, 0.1)]


def run_checks(cfg: RunConfig) -> list[tuple[str, float, float]]:
    """All invariant checks for the configured family: (name, residual, tol).

    The checks at scattered points (product form, metric equivalence, the
    gradient identity for Phi) and the curvature lattice each evaluate all
    their points in one array call, and so do the cone-angle contours of all
    marked points.  An error raised on the way is raised again, of the same
    type, with the name of the check that raised it (``metric`` while the
    metric is built) in front of its message.
    """
    stage = "metric"
    try:
        mp = cfg.metric_params()
        tol = cfg.tolerances
        checks: list[tuple[str, float, float]] = []

        stage = "residue-sum"
        residues = mp.form.residues
        res_sum = abs(math.fsum(residues) + forms.residue_at_infinity(mp.form))
        checks.append((stage, res_sum / max(1.0, sum(abs(r) for r in residues)), 1e-14))

        if cfg.family == "heart":
            stage = "product-form"
            beta = cfg.heart.beta
            gamma = 1.0 - beta
            z = _sample_points(mp, 50, seed=7)
            lhs = forms._coefficient(mp.form, z)
            rhs = z / ((z - 1.0) * (z + gamma / beta))
            worst = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))
            checks.append((stage, worst, 1e-12))
            stage = "zero-placement"
            zeros = forms.finite_zeros(mp.form)
            zero_defect = max(abs(root) for root, _ in zeros) if len(zeros) == 1 else math.inf
            checks.append((stage, zero_defect, 1e-9))
        else:
            stage = "constraint-residual"
            positions = mp.form.positions
            r0, r1 = families.constraint_residual(
                cfg.angles, positions[1], positions[0], positions[2])
            checks.append((stage, max(r0, r1), tol.residual_tol))
            stage = "zero-placement"
            zeros = forms.finite_zeros(mp.form)
            if len(zeros) == 2:
                zero_defect = max(abs(zeros[0][0]), abs(zeros[1][0] - 1.0))
            else:
                zero_defect = math.inf
            checks.append((stage, zero_defect, 1e-9))

        stage = "metric-equivalence"
        z = _sample_points(mp, 300, seed=11)
        _, _, a = metric._evaluate(mp, z)
        b = metric._developing_density(mp, z)
        worst = float(np.max(np.abs(a - b) / np.maximum(np.maximum(a, b), 1e-300)))
        checks.append((stage, worst, 1e-12))

        stage = "dphi-identity"
        worst = float(np.max(metric._phi_gradient_residuals(mp, _sample_points(mp, 100, seed=13))))
        checks.append((stage, worst, 1e-6))

        stage = "curvature"
        cells = _curvature_cells(mp, cfg.grid)
        worst = math.inf
        if cells.size:
            kappa = metric.curvature_field(mp, cells)
            hit = np.flatnonzero(np.isnan(kappa))
            if hit.size:
                raise StencilHitsSingularity(
                    f"stencil at {complex(cells[hit[0]])} touched a singular point")
            worst = float(np.max(np.abs(kappa - 1.0)))
        checks.append((stage, worst, tol.curvature_tol))

        stage = "cone-angles"
        # the estimate errs by about 0.26 (eps / d)^2, d the mark's clearance
        contours = [(m, max(1e-5, min(1e-3, m.clearance / 20.0))) for m in mp.marked]
        worst = 0.0
        for m, est in zip(mp.marked, metric._cone_angle_estimates(mp, contours, n=512)):
            expected = 2.0 * math.pi * m.coefficient
            worst = max(worst, abs(est - expected) / expected)
        checks.append((stage, worst, 1e-2))

        stage = "length-identities"
        if cfg.family == "heart":
            hp = cfg.heart
            l01 = geodesics.radial_length(mp, 0.0, 1.0)
            lgb = geodesics.radial_length(mp, 0.0, complex(-hp.gamma / hp.beta, 0.0))
            linf = geodesics.radial_length(mp, 0.0, INFINITY)
            closed = 2.0 * math.atan(families.heart_apex_image(hp))
            residual = max(abs(l01 + linf - math.pi), abs(l01 - lgb), abs(l01 - closed))
            checks.append((stage, residual, tol.length_tol))
            stage = "traced-length"
            trace = geodesics.trace_radial_preimage(mp, 0.0, 1.0, n=200)
            checks.append((stage, abs(trace.length - l01), max(1e-6, tol.length_tol)))
        else:
            p_alpha = mp.form.positions[1]
            s1 = (geodesics.radial_length(mp, 0.0, p_alpha)
                  + geodesics.radial_length(mp, 0.0, INFINITY))
            s2 = (geodesics.radial_length(mp, 1.0, p_alpha)
                  + geodesics.radial_length(mp, 1.0, INFINITY))
            residual = max(abs(s1 - math.pi), abs(s2 - math.pi))
            checks.append((stage, residual, tol.length_tol))
    except ConeMetricError as exc:
        raise type(exc)(f"{stage}: {exc}") from exc
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
            print(geodesics.decomposition_report(cfg.football()).to_json())
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
    increasing = mp.mark_at(pole).residue < 0.0
    return [(start, None), (start, -geodesics._default_launch(mp, start, pole, increasing))]


def cmd_plot(cfg: RunConfig) -> int:
    mp = cfg.metric_params()
    g = cfg.grid
    canvas = svg.SvgCanvas(bounds=g.bounds)

    xs = [g.x_min + (g.x_max - g.x_min) * i / (g.nx - 1) for i in range(g.nx)]
    ys = [g.y_min + (g.y_max - g.y_min) * j / (g.ny - 1) for j in range(g.ny)]
    nodes = np.empty((g.ny, g.nx), dtype=complex)
    nodes.real = xs
    nodes.imag = np.array(ys)[:, None]
    # log|F| = s / 2, with no pole mask; the anchor through the same call, so
    # that a node at 0 lies on level 0 exactly
    anchor = 0.5 * float(metric._evaluate(mp, np.zeros(1, dtype=complex), guard=0.0)[0][0])
    levels = [anchor + k * math.log(2.0) for k in range(-3, 4)]
    svg.add_level_sets(canvas, 0.5 * metric._evaluate(mp, nodes, guard=0.0)[0], xs, ys, levels)

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
        # a pole, or infinity, that no radial geodesic from 0 reaches may
        # still be reached from the zero at 1, so the launches from 1 follow
        # those from 0
        to_infinity = [(start, u) for start in (0.0, 1.0)
                       for u in geodesics.launch_directions(mp, start, increasing=True)]
        _plot_traces(canvas, mp, [
            (pole, color, _pole_launches(mp, 0.0, pole) + _pole_launches(mp, 1.0, pole))
            for pole, color in ((p_alpha, "#cc2222"), (p_gamma, "#cc2222"), (p_beta, "#22aa44"))
        ] + [(INFINITY, "#22aa44", to_infinity)])
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

#: the commands, with their help lines
_COMMANDS = {
    "verify": "run the invariant suites and exit 0 only if all pass",
    "report": "emit the geodesic decomposition report as JSON",
    "sample": "write the phi/density/curvature grid as CSV",
    "plot": "write an SVG with marks, level sets and traced geodesics",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` returns a
    fresh namespace on every call, so no value carries over between calls.

    One parser takes the command as a positional argument and every flag on
    either side of it: all four commands read the same flags."""
    parser = argparse.ArgumentParser(
        prog="conemetrics",
        description="Construct and verify spherical conical metrics from "
                    "third-kind differentials",
        epilog="commands:\n" + "".join(f"  {name:<8}{text}\n" for name, text in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--family", choices=("heart", "threefb"))
    parser.add_argument("--beta", type=float)
    parser.add_argument("--c", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--pbeta", type=str)
    parser.add_argument("--camp", type=float)
    parser.add_argument("--branch", choices=("plus", "minus"))
    parser.add_argument("--special", action="store_true")
    parser.add_argument("--grid", type=str, metavar="x0,x1,y0,y1,nx,ny")
    parser.add_argument("--out", type=str, metavar="DIR")
    parser.add_argument("--config", type=str, metavar="FILE")
    parser.add_argument("--palpha", type=str, help="override the solved P_alpha (diagnostic)")
    parser.add_argument("--pgamma", type=str, help="override the solved P_gamma (diagnostic)")
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
