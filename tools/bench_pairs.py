"""Alternating benchmark pairs of a parent revision and a change.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_23.json \
        [--change REV] [--run WORKLOAD:SEED ...] [--pairs 3] [--role final]

Run it from anywhere inside the repository.  It ``git archive``s each side
into its own temporary directory (``--change`` defaults to HEAD; pass
``$(git stash create)`` after ``git add -A`` to measure uncommitted work) and
runs ``python3 perfbench/run.py --workload W --seed S --seconds 18 --trace 0``
from each tree, one run at a time.  For every ``--run`` (default: each
workload of ``BENCHMARK.json`` on seed 1) it makes ``--pairs`` pairs; the
parent runs first in even pairs and the change in odd ones.  Each run's wall
time, from spawning ``run.py`` to its exit, is recorded with its result, and
all runs are written to ``--out`` in the schema of ``BENCH_21.json``
(``harness``, ``machine``, ``roles``, ``wall_s``, ``runs``).  Then it prints,
per workload and seed, every end-to-end metric of ``BENCHMARK.json``: each
side's median and quartiles, the ratio of the medians (change / parent) and
the pairs the change won (ties count for neither side), and each side's
``failed`` and ``attempted`` operations summed over all of its runs.  The
exit status is 1 when a run fails or reports ``correct: false``, or when the
change failed more operations than the parent on some workload and seed in
total: a failure or two in many thousands reads 0 in every median of
``ops_failed_share``, and shows only in the sum.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from identity_sweep import ROOT, archive  # noqa: E402

SECONDS = 18
HARNESS = f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0"


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_spec(text: str) -> tuple[str, int]:
    workload, sep, seed = text.rpartition(":")
    if not sep or not workload:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED, got {text!r}")
    try:
        return workload, int(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {seed!r}") from exc


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least one pair, got {value}")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench_pairs",
        description="alternate benchmark runs of a parent revision and a change")
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="git revision of the parent side")
    parser.add_argument("--change", default="HEAD", metavar="REV",
                        help="git revision of the change side (default HEAD)")
    parser.add_argument("--out", required=True, metavar="FILE",
                        help="JSON file to write, such as BENCH_23.json")
    parser.add_argument("--run", action="append", type=_run_spec, metavar="WORKLOAD:SEED",
                        help="workload and seed to run (repeatable; default every "
                             "workload on seed 1)")
    parser.add_argument("--pairs", type=_positive, default=3,
                        help="pairs per workload and seed (default 3)")
    parser.add_argument("--role", default="final", help="role recorded with each run")
    parser.add_argument("--role-note", default="", help="what the role's runs are for")
    args = parser.parse_args(argv)
    if args.run is None:
        args.run = [(w["name"], 1) for w in load_benchmark()["workloads"]]
    return args


def rev_parse(rev: str) -> str:
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def run_once(tree: str, workload: str, seed: int) -> tuple[float, dict | None, str]:
    """``(wall_s, result, error)`` of one benchmark run from ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    t0 = perf_counter()
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    wall = round(perf_counter() - t0, 1)
    if done.returncode != 0:
        return wall, None, f"exit {done.returncode}: {done.stderr[-500:]}"
    return wall, json.loads(done.stdout.strip().splitlines()[-1]), ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def failures(runs: list[dict]) -> dict[tuple[str, int, str], tuple[int, int]]:
    """``(failed, attempted)`` summed over the runs of each workload, seed and side
    that returned a result."""
    out: dict[tuple[str, int, str], tuple[int, int]] = {}
    for r in runs:
        if r["result"] is not None:
            key = (r["workload"], r["seed"], r["side"])
            failed, attempted = out.get(key, (0, 0))
            out[key] = (failed + r["result"]["failed"], attempted + r["result"]["attempted"])
    return out


def more_failures(runs: list[dict]) -> list[tuple[str, int]]:
    """The workloads and seeds on which the change failed more operations than the parent."""
    totals = failures(runs)
    worse = []
    for (workload, seed, side), (failed, _) in totals.items():
        parent, _ = totals.get((workload, seed, "parent"), (0, 0))
        if side == "change" and failed > parent:
            worse.append((workload, seed))
    return sorted(worse)


def summary(runs: list[dict], metrics: list[dict]) -> list[str]:
    """The table lines: per workload and seed, the failed operations of each side,
    then each metric's medians, quartiles and wins."""
    lines = []
    totals = failures(runs)
    worse = more_failures(runs)
    groups = sorted({(r["workload"], r["seed"]) for r in runs})
    for workload, seed in groups:
        by_pair: dict[int, dict[str, dict]] = {}
        for r in runs:
            if (r["workload"], r["seed"]) == (workload, seed) and r["result"] is not None:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        lines.append(f"{workload}, seed {seed}, {len(pairs)} pairs")
        counts = []
        for side in ("parent", "change"):
            failed, attempted = totals.get((workload, seed, side), (0, 0))
            counts.append(f"{side} {failed}/{attempted}")
        lines.append(f"  failed/attempted over all runs: {', '.join(counts)}"
                     f"{'  MORE FAILURES' if (workload, seed) in worse else ''}")
        for metric in metrics if pairs else ():
            name = metric["name"]
            parent = [p["parent"][name]["value"] for p in pairs]
            change = [p["change"][name]["value"] for p in pairs]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
            pm, p1, p3 = quartiles(parent)
            cm, c1, c3 = quartiles(change)
            ratio = f"{cm / pm:.3f}x" if pm else "n/a"
            lines.append(f"  {name:22s} {pm:.4g} [{p1:.4g}, {p3:.4g}] -> "
                         f"{cm:.4g} [{c1:.4g}, {c3:.4g}]  {ratio}  wins {wins}/{len(pairs)}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = load_benchmark()["end_to_end"]
    commits = {"parent": rev_parse(args.parent), "change": rev_parse(args.change)}
    runs, bad = [], 0
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {}
        for side, commit in commits.items():
            trees[side] = os.path.join(tmp, side)
            archive(commit, trees[side])
        for workload, seed in args.run:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    wall, result, error = run_once(trees[side], workload, seed)
                    ok = result is not None and result["correct"]
                    bad += not ok
                    print(f"{workload} seed {seed} pair {pair} {side}: {wall} s"
                          f"{'' if ok else ' FAILED ' + (error or 'correct: false')}",
                          flush=True)
                    runs.append({"role": args.role, "side": side, "commit": commits[side],
                                 "workload": workload, "seed": seed, "pair": pair,
                                 "ran_first": side == order[0], "wall_s": wall,
                                 "result": result, **({"error": error} if error else {})})
    payload = {
        "harness": HARNESS,
        "machine": (f"{len(os.sched_getaffinity(0))} CPUs, {platform.machine()}, Python "
                    f"{platform.python_version()}; one run at a time; pairs alternate which "
                    "side runs first (the parent in even pairs); each side run from its own "
                    "git archive of its revision"),
        "roles": {args.role: args.role_note},
        "wall_s": "per run, seconds from spawning run.py to its exit",
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print("\n".join(summary(runs, metrics)))
    return 1 if bad or more_failures(runs) else 0


if __name__ == "__main__":
    sys.exit(main())
