"""The operations each workload runs, generated from the workload seed.

An operation is one CLI command: the argv handed to ``conemetrics.cli.main``
plus what the benchmark needs to validate its output.  Every workload runs all
four commands, so every end-to-end metric exists on every workload; the
workload's main command takes most of its time, and the others run on a small
companion set, repeated and spread through the pass so that their medians
rest on several samples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("verify-sweep", "grid-sample", "decompose")

#: seeds for verify-sweep: tune with the default, confirm a claim on the held-out one
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: seeded part of verify-sweep: this many heart and this many generic three-football configs
SWEEP_PER_FAMILY = 50

FULL_GRID = "-3,3,-3,3,201,201"
COMPANION_GRID = "-3,3,-3,3,41,41"
SMOKE_GRID = "-3,3,-3,3,11,11"

#: check names ``verify`` prints, in order, for each family
VERIFY_CHECKS = {
    "heart": ("residue-sum", "product-form", "zero-placement", "metric-equivalence",
              "dphi-identity", "curvature", "cone-angles", "length-identities",
              "traced-length"),
    "threefb": ("residue-sum", "constraint-residual", "zero-placement",
                "metric-equivalence", "dphi-identity", "curvature", "cone-angles",
                "length-identities"),
}

#: labelled marks ``plot`` draws for each family
PLOT_MARKS = {"heart": 4, "threefb": 6}


def _num(x: float) -> str:
    return repr(float(x))


def _cplx(z: complex) -> str:
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{_num(z.real)}{sign}{_num(abs(z.imag))}i"


@dataclass(frozen=True)
class Config:
    """One family configuration, as the CLI flags spell it."""

    family: str
    beta: float = 0.5
    c: float = 0.0
    alpha: float | None = None
    gamma: float | None = None
    special: bool = False
    pbeta: complex = 0j
    branch: str = "minus"
    camp: float = 1.0

    def flags(self) -> list[str]:
        # always --flag=value: argparse takes a value with a leading '-' for a flag
        if self.family == "heart":
            return ["--family=heart", f"--beta={_num(self.beta)}", f"--c={_num(self.c)}"]
        out = ["--family=threefb"]
        if self.special:
            out.append("--special")
        else:
            out += [f"--alpha={_num(self.alpha)}", f"--beta={_num(self.beta)}",
                    f"--gamma={_num(self.gamma)}"]
        return out + [f"--pbeta={_cplx(self.pbeta)}", f"--branch={self.branch}",
                      f"--camp={_num(self.camp)}"]

    @property
    def label(self) -> str:
        if self.family == "heart":
            return f"heart beta={self.beta:.6g} c={self.c:.6g}"
        angles = ("special" if self.special
                  else f"angles=({self.alpha:.6g},{self.beta:.6g},{self.gamma:.6g})")
        return (f"threefb {angles} pbeta={self.pbeta.real:.6g}{self.pbeta.imag:+.6g}i "
                f"{self.branch} camp={self.camp:.6g}")

    def metric_params(self):
        """The metric the command should have built, from the public API."""
        from conemetrics import families

        if self.family == "heart":
            return families.heart_metric(families.HeartParams(self.beta, self.c))
        return families.three_football_metric(self.football())

    def football(self):
        from conemetrics import families

        angles = (families.special_case_angles() if self.special
                  else families.AngleTriple(self.alpha, self.beta, self.gamma))
        return families.make_three_football(angles, self.pbeta,
                                            families.Branch(self.branch), self.camp)


@dataclass(frozen=True)
class Op:
    command: str
    config: Config
    grid: str | None = None
    main: bool = True

    def argv(self, out_dir: str) -> list[str]:
        argv = [self.command] + self.config.flags()
        if self.grid is not None:
            argv.append(f"--grid={self.grid}")
        if self.command in ("sample", "plot"):
            argv.append(f"--out={out_dir}")
        return argv

    @property
    def cells(self) -> int:
        """Grid cells a ``sample`` writes (the CLI default grid is 61 x 61)."""
        nx, ny = (self.grid or "0,0,0,0,61,61").split(",")[4:]
        return int(nx) * int(ny)


HEART_HALF = Config("heart", beta=0.5)
SPECIAL = Config("threefb", special=True, pbeta=complex(0.3, 0.2))


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], in random order."""
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def _admissible(cfg: Config) -> bool:
    from conemetrics.errors import ConeMetricError

    try:
        cfg.football()
    except ConeMetricError:
        return False
    return True


def _generic_footballs(rng: random.Random, n: int) -> list[Config]:
    out: list[Config] = []
    while len(out) < n:
        a, b, g = (rng.uniform(0.2, 1.8) for _ in range(3))
        if any(abs(v - round(v)) < 0.05 for v in (b, g, a + b, a + g)):
            continue
        p = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(p) < 0.1 or abs(p - 1.0) < 0.1:
            continue
        cfg = Config("threefb", alpha=a, beta=b, gamma=g, pbeta=p,
                     branch=rng.choice(("plus", "minus")),
                     camp=math.exp(rng.uniform(math.log(0.25), math.log(4.0))))
        if _admissible(cfg):
            out.append(cfg)
    return out


def _interleave(main: list[Op], companions: list[Op], copies: int) -> list[Op]:
    """``main`` with the companion group inserted ``copies`` times at even spacing,
    so companion latencies are sampled across the whole run, not in one burst."""
    out: list[Op] = []
    step = -(-len(main) // copies)
    for k in range(0, len(main), step):
        out += main[k:k + step] + companions
    return out


def _verify_sweep(rng: random.Random, smoke: bool) -> list[Op]:
    per_family = 1 if smoke else SWEEP_PER_FAMILY
    pinned = [HEART_HALF, SPECIAL] if smoke else [
        HEART_HALF, Config("heart", beta=0.3), Config("heart", beta=0.15), SPECIAL]
    hearts = [Config("heart", beta=b, c=c) for b, c in zip(
        _stratified(rng, per_family, 0.1, 0.9), _stratified(rng, per_family, -1.5, 1.5))]
    seeded = hearts + _generic_footballs(rng, per_family)
    rng.shuffle(seeded)
    grid = SMOKE_GRID if smoke else COMPANION_GRID
    companions = [Op("sample", HEART_HALF, grid, main=False),
                  Op("plot", HEART_HALF, SMOKE_GRID if smoke else None, main=False)]
    companions += [Op("report", HEART_HALF, main=False)] * 5
    return _interleave([Op("verify", cfg) for cfg in pinned + seeded], companions,
                       1 if smoke else 6)


def _grid_sample(rng: random.Random, smoke: bool) -> list[Op]:
    grid = SMOKE_GRID if smoke else FULL_GRID
    plot_grid = SMOKE_GRID if smoke else None
    ops = [Op("sample", cfg, grid) for cfg in (HEART_HALF, SPECIAL)]
    ops += [Op("plot", cfg, plot_grid) for cfg in (HEART_HALF, SPECIAL)]
    ops += [Op("verify", cfg, main=False) for cfg in (HEART_HALF, SPECIAL)] * 3
    ops += [Op("report", HEART_HALF, main=False)] * 5
    rng.shuffle(ops)
    return ops


#: the decomposition set: the conjugate pair and the anchor p_beta = 1/2
DECOMPOSE_SET = (
    SPECIAL,
    Config("threefb", special=True, pbeta=complex(0.3, -0.2)),
    Config("threefb", special=True, pbeta=complex(0.5, 0.0)),
)


def _decompose(rng: random.Random, smoke: bool) -> list[Op]:
    configs = DECOMPOSE_SET[:2] if smoke else DECOMPOSE_SET
    grid = SMOKE_GRID if smoke else COMPANION_GRID
    reports = [Op("report", cfg) for cfg in configs]
    rng.shuffle(reports)
    companions = [Op("verify", SPECIAL, main=False),
                  Op("sample", SPECIAL, grid, main=False),
                  Op("plot", SPECIAL, SMOKE_GRID if smoke else None, main=False)]
    return _interleave(reports, companions * 2, len(reports))


def build_ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The operations of one pass of ``workload``; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-sweep":
        return _verify_sweep(rng, smoke)
    if workload == "grid-sample":
        return _grid_sample(rng, smoke)
    if workload == "decompose":
        return _decompose(rng, smoke)
    raise ValueError(f"unknown workload {workload!r}")
