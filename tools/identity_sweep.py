"""Byte-identity sweep of the CLI between a parent revision and the working tree.

    python3 tools/identity_sweep.py --parent HEAD~1 [--expect PATTERN ...] [--keep DIR]
                                    [--wide-box N]

Run it from anywhere inside the repository.  It ``git archive``s the parent
revision into a temporary directory and runs ``verify``, ``report``,
``sample --grid=-3,3,-3,3,41,41`` and ``plot`` on every distinct
configuration of ``build_ops("verify-sweep", seed)`` for seeds 1 and 7919,
plus ``DECOMPOSE_SET`` (206 configurations).  It also runs ``sample`` alone
on the 201 x 201 grid of each ``sample`` of ``build_ops("grid-sample", 1)``,
named ``g000`` and ``g001``: a 41 x 41 grid is written in one part, so only
these two reach the CSV writer's parts (on a machine with two or more
CPUs).  Two more kinds of ``sample`` reach the curvature stencil's arm
screen: a 41 x 41 grid of half-width 1e-4 centred on each finite marked
point of ``HEART_HALF`` and ``SPECIAL`` (``m000``, ``m001``, ...), and the
default grid of the hearts with beta = 0.5 and c = 300, -300 and 700
(``u000`` to ``u002``), whose densities on that grid are at most 3e-128,
and at c = 700 below the screen's density floor.  Each tree runs them all
in a fresh interpreter of its own.  Then it compares exit codes, stdout
line by line, stderr, and the CSV and SVG files, and prints every
difference under a key such as ``c017/verify/stdout:traced-length`` or
``c017/plot/plot.svg``, with the configuration it names.  Differences
whose key matches an ``--expect`` glob (fnmatch) are intended; any other
makes the exit status 1.  ``--keep DIR`` keeps both output trees there.

``--wide-box N`` adds N admissible three-football configurations of the
wide box (ROADMAP item 8), drawn by ``random.Random(1)``: each angle
log-uniform in (0.03, 5); ``P_beta`` at a uniform phase, within 0.05 of 1
(uniform radius) with probability 1/5 and else with ``|P_beta|``
log-uniform in (0.02, 8); the branch uniform; ``c_amp`` log-uniform in
(1e-3, 1e3).  A draw that ``make_three_football`` refuses is skipped.
They are named ``w000``, ``w001``, ...  After the differences the sweep
prints, for each tree and command, how many configurations exited with each
code, and for each tree how many configurations each ``verify`` check
failed on.
"""

from __future__ import annotations

import argparse
import cmath
import collections
import fnmatch
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = ("verify", "report", "sample", "plot")
SAMPLE_GRID = "-3,3,-3,3,41,41"
DEFAULT_GRID = "-3,3,-3,3,61,61"
#: half-width of the grids centred on the marked points
MARK_HALF_WIDTH = 1e-4
#: the c of the hearts (beta = 0.5) sampled on the default grid
LARGE_C = (300.0, -300.0, 700.0)
SEEDS = (1, 7919)

#: runs the commands of every job in one interpreter, from the ``src`` directory
#: of one tree; argv: src dir, output dir, jobs JSON of [name, flags, commands, grid]
_WORKER = r"""
import contextlib, io, json, os, sys
src, out, jobs = sys.argv[1:4]
sys.path.insert(0, src)
from conemetrics import cli
os.chdir(out)
for name, flags, commands, grid in json.load(open(jobs)):
    for command in commands:
        where = os.path.join(name, command)
        os.makedirs(where)
        argv = [command] + flags
        if command == "sample":
            argv.append("--grid=" + grid)
        if command in ("sample", "plot"):
            argv.append("--out=" + where)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        for part, text in (("exit", f"{code}\n"), ("stdout", stdout.getvalue()),
                           ("stderr", stderr.getvalue())):
            with open(os.path.join(where, part), "w") as fh:
                fh.write(text)
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="identity_sweep",
        description="compare every CLI output on the sweep configurations with a parent revision")
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="git revision to compare the working tree with")
    parser.add_argument("--expect", action="append", default=[], metavar="PATTERN",
                        help="glob of difference keys that are intended (repeatable)")
    parser.add_argument("--keep", metavar="DIR",
                        help="keep the two output trees in DIR/parent and DIR/change")
    parser.add_argument("--wide-box", type=_count, default=0, metavar="N",
                        help="add N seeded three-football configurations of the wide box")
    return parser.parse_args(argv)


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text}")
    return n


def _workloads():
    """The benchmark's ``workloads`` module, with this checkout's package on the path."""
    for path in (os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def wide_box_configs(n: int) -> list[tuple[str, list[str], str]]:
    """``(name, flags, label)`` of the first n admissible wide-box footballs."""
    Config = _workloads().Config
    from conemetrics.errors import ConeMetricError

    rng = random.Random(1)

    def log_uniform(lo: float, hi: float) -> float:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    out = []
    while len(out) < n:
        alpha, beta, gamma = (log_uniform(0.03, 5.0) for _ in range(3))
        phase = complex(0.0, rng.uniform(-math.pi, math.pi))
        if rng.random() < 0.2:
            p_beta = 1.0 + rng.uniform(0.0, 0.05) * cmath.exp(phase)
        else:
            p_beta = log_uniform(0.02, 8.0) * cmath.exp(phase)
        cfg = Config("threefb", alpha=alpha, beta=beta, gamma=gamma, pbeta=p_beta,
                     branch=rng.choice(("plus", "minus")), camp=log_uniform(1e-3, 1e3))
        try:
            cfg.football()
        except ConeMetricError:
            continue
        out.append((f"w{len(out):03d}", cfg.flags(), cfg.label))
    return out


def sweep_configs() -> list[tuple[str, list[str], str]]:
    """``(name, flags, label)`` of every distinct configuration, in first-seen order."""
    workloads = _workloads()
    DECOMPOSE_SET, build_ops = workloads.DECOMPOSE_SET, workloads.build_ops

    seen: dict[tuple[str, ...], str] = {}
    for seed in SEEDS:
        for op in build_ops("verify-sweep", seed):
            seen.setdefault(tuple(op.config.flags()), op.config.label)
    for cfg in DECOMPOSE_SET:
        seen.setdefault(tuple(cfg.flags()), cfg.label)
    return [(f"c{i:03d}", list(flags), label) for i, (flags, label) in enumerate(seen.items())]


def full_grid_configs() -> list[tuple[str, list[str], str]]:
    """``(name, flags, label)`` of each ``sample`` of the ``grid-sample`` workload."""
    workloads = _workloads()
    ops = [op for op in workloads.build_ops("grid-sample", SEEDS[0])
           if op.command == "sample" and op.grid == workloads.FULL_GRID]
    return [(f"g{i:03d}", op.config.flags(), op.config.label) for i, op in enumerate(ops)]


def screen_grid_configs() -> list[tuple[str, list[str], str, str]]:
    """``(name, flags, label, grid)`` of the ``sample`` runs that reach the
    curvature stencil's arm screen: the grids centred on each finite marked
    point, then the hearts with a large ``|c|`` on the default grid."""
    workloads = _workloads()
    out = []
    for cfg in (workloads.HEART_HALF, workloads.SPECIAL):
        for mark in cfg.metric_params().marked:
            if mark.kind == "infinity":
                continue
            z, r = mark.position, MARK_HALF_WIDTH
            grid = f"{z.real - r!r},{z.real + r!r},{z.imag - r!r},{z.imag + r!r},41,41"
            out.append((f"m{len(out):03d}", cfg.flags(), f"{cfg.label} at the {mark.kind} {z}",
                        grid))
    for i, c in enumerate(LARGE_C):
        cfg = workloads.Config("heart", beta=0.5, c=c)
        out.append((f"u{i:03d}", cfg.flags(), cfg.label, DEFAULT_GRID))
    return out


def archive(rev: str, dest: str) -> None:
    """Extract the files of ``rev`` into ``dest``."""
    done = subprocess.run(["git", "-C", ROOT, "archive", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(dest, filter="data")


def run_tree(src: str, out: str, jobs_file: str) -> None:
    os.makedirs(out)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", _WORKER, src, out, jobs_file], env=env, check=True)


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def compare(parent: str, change: str, jobs) -> list[tuple[str, str]]:
    """Every difference as ``(key, detail)``."""
    out = []
    for name, _, _, commands, _ in jobs:
        for command in commands:
            a_dir, b_dir = os.path.join(parent, name, command), os.path.join(change, name, command)
            files = sorted(set(os.listdir(a_dir)) | set(os.listdir(b_dir)))
            for part in files:
                a, b = _read(os.path.join(a_dir, part)), _read(os.path.join(b_dir, part))
                if a == b:
                    continue
                key = f"{name}/{command}/{part}"
                if part != "stdout" or a is None or b is None:
                    out.append((key, "differs" if a is not None and b is not None
                                else "only in " + ("change" if a is None else "parent")))
                    continue
                a_lines, b_lines = a.decode().splitlines(), b.decode().splitlines()
                if len(a_lines) != len(b_lines):
                    out.append((key, f"{len(a_lines)} lines -> {len(b_lines)} lines"))
                    continue
                for i, (x, y) in enumerate(zip(a_lines, b_lines)):
                    if x != y:
                        label = x.split(":", 1)[0] if ":" in x else f"line{i + 1}"
                        out.append((f"{key}:{label}", f"- {x}\n    + {y}"))
    return out


def census(out: str, jobs) -> list[str]:
    """Exit-code counts per command, and the FAIL counts per ``verify`` check, of one tree."""
    lines = []
    fails: collections.Counter = collections.Counter()
    for command in COMMANDS:
        codes: collections.Counter = collections.Counter()
        for name, _, _, commands, _ in jobs:
            if command not in commands:
                continue
            where = os.path.join(out, name, command)
            codes[_read(os.path.join(where, "exit")).decode().strip()] += 1
            if command == "verify":
                for line in _read(os.path.join(where, "stdout")).decode().splitlines():
                    if line.endswith(" FAIL"):
                        fails[line.split(":", 1)[0]] += 1
        lines.append(f"{command}: " + ", ".join(f"exit {code} x {n}"
                                                for code, n in sorted(codes.items())))
    lines.append("verify FAIL: " + (", ".join(f"{check} x {n}" for check, n in sorted(fails.items()))
                                    or "none"))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs = [(*config, COMMANDS, SAMPLE_GRID)
            for config in sweep_configs() + wide_box_configs(args.wide_box)]
    jobs += [(*config, ("sample",), _workloads().FULL_GRID) for config in full_grid_configs()]
    jobs += [(name, flags, label, ("sample",), grid)
             for name, flags, label, grid in screen_grid_configs()]
    with tempfile.TemporaryDirectory(prefix="identity-sweep-") as tmp:
        base = args.keep or tmp
        jobs_file = os.path.join(tmp, "jobs.json")
        with open(jobs_file, "w") as fh:
            json.dump([(name, flags, commands, grid) for name, flags, _, commands, grid in jobs],
                      fh)
        tree = os.path.join(tmp, "tree")
        archive(args.parent, tree)
        run_tree(os.path.join(tree, "src"), os.path.join(base, "parent"), jobs_file)
        run_tree(os.path.join(ROOT, "src"), os.path.join(base, "change"), jobs_file)
        diffs = compare(os.path.join(base, "parent"), os.path.join(base, "change"), jobs)
        censuses = {tree: census(os.path.join(base, tree), jobs)
                    for tree in ("parent", "change")}
    labels = {name: label for name, _, label, _, _ in jobs}
    unexpected = 0
    for key, detail in diffs:
        expected = any(fnmatch.fnmatchcase(key, pattern) for pattern in args.expect)
        unexpected += not expected
        print(f"{'expected' if expected else 'DIFFERS'} {key} [{labels[key.split('/')[0]]}]")
        print(f"    {detail}")
    for tree, lines in censuses.items():
        for line in lines:
            print(f"{tree} {line}")
    runs = sum(len(commands) for _, _, _, commands, _ in jobs)
    print(f"{len(jobs)} configurations, {runs} commands: {len(diffs)} differences, "
          f"{unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
