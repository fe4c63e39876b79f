"""One workload in one fresh process: a closed loop over the CLI, in-process.

Run by ``run.py``; prints one JSON object on its last stdout line.  A single
client calls ``conemetrics.cli.main(argv)`` with the next operation only after
the previous one returned.  The op list runs in whole passes until its
commands have taken ``--seconds`` at the reference speed, so the mix of
operations, and with it the share that fails, is the same in every run of a
seed however fast the machine is at the time; a traced run stops after the
first pass, so its counts repeat exactly.  Each command's output is validated
right after it returns, outside the timed region.

Every command's wall time is scaled to the reference speed of ``speed``,
with the calibrations around it and, for a long command, those taken while
it ran; the unscaled figures are in the detail line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import validate  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import CAL_REF_S, SpeedProbe, calibrate  # noqa: E402
from workloads import build_ops  # noqa: E402

#: a latency tail is reported at the highest percentile with this many samples beyond it
TAIL_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """(p, nearest-rank p-th percentile) for the highest integer p that leaves
    at least TAIL_BEYOND samples above its rank; None when too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # ceil(p n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return None


def run_command(cli, argv: list[str], probe: bool = False):
    """(exit code, output, seconds, crash text, calibrations taken meanwhile) of one
    in-process CLI call; with ``probe``, calibrations interrupt long commands."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    speed = SpeedProbe()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                speed if probe else contextlib.nullcontext():
            code = cli.main(argv)
    except Exception:  # an escaped exception is a crash of the command
        code = 1
        crash = traceback.format_exc(limit=3)[-400:]
    elapsed = perf_counter() - t0 - speed.spent
    return code, out.getvalue() + err.getvalue(), elapsed, crash, speed.samples


#: how the CLI reports a typed failure instead of a result
TYPED_FAILURES = ("verification aborted", "computation failed", "invalid configuration")


def outcome(op, code: int, text: str, crash: str | None, out_dir: str, seen: dict):
    """(operations, failures, invalid reason) of one command, as ``validate`` counts them."""
    n = len(validate.VERIFY_CHECKS[op.config.family]) if op.command == "verify" else 1
    if crash is not None:
        return n, [{"config": op.config.label, "command": op.command, "crash": crash}] * n, crash
    if code != 0 and text.startswith(TYPED_FAILURES):
        error = text.splitlines()[0][:300]
        return n, [{"config": op.config.label, "command": op.command, "error": error}] * n, None
    if op.command == "verify":
        return validate.check_verify(op, code, text)
    if op.command == "report":
        return validate.check_report(op, code, text, seen)
    if op.command == "sample":
        return validate.check_sample(op, code, text, out_dir)
    return validate.check_plot(op, code, text, out_dir)


def timing_metrics(records) -> tuple[dict, dict]:
    """Latency and throughput metrics from (op, seconds) records, and their sample counts."""
    latencies: dict[tuple, list[float]] = {}
    busy = dict.fromkeys(("verify", "report", "sample", "plot"), 0.0)
    done = dict.fromkeys(busy, 0)
    cells = 0
    for op, seconds in records:
        latencies.setdefault((op.command, op.config, op.grid), []).append(seconds)
        busy[op.command] += seconds
        done[op.command] += 1
        cells += op.cells if op.command == "sample" else 0

    def per_config(command: str) -> list[float]:
        # each configuration counts once, at the median of its repeats in the run
        return [statistics.median(v) for (c, _, _), v in latencies.items() if c == command]

    verify_lat = per_config("verify")
    tail = tail_percentile(verify_lat)
    # a workload with fewer verify configs than the tail needs reports its slowest one
    tail_p, tail_v = tail if tail is not None else (100, max(verify_lat))
    return {
        "verify.configs_per_s": (done["verify"] / busy["verify"], "1/s"),
        "verify_s.p50": (statistics.median(verify_lat), "s"),
        "verify_s.tail": (tail_v, "s"),
        "sample.cells_per_s": (cells / busy["sample"], "1/s"),
        "plot_s.p50": (statistics.median(per_config("plot")), "s"),
        "report.configs_per_s": (done["report"] / busy["report"], "1/s"),
        "report_s.p50": (statistics.median(per_config("report")), "s"),
    }, {"verify_s.tail": {"percentile": tail_p, "samples": len(verify_lat)},
        "samples": {c: len(per_config(c)) for c in busy},
        "commands_run": done}


def run_workload(workload: str, seed: int, seconds: float, out_dir: str,
                 tracer: Tracer | None = None, smoke: bool = False) -> dict:
    from conemetrics import cli

    ops = build_ops(workload, seed, smoke)
    os.makedirs(out_dir, exist_ok=True)
    records: list[tuple] = []
    attempted = failed = 0
    failures: dict[str, dict] = {}
    invalid: list[str] = []
    first_pass_s = 0.0

    if tracer is not None:
        tracer.install()
    t_start = perf_counter()
    try:
        cal_before = calibrate()
        while True:
            seen: dict = {}  # three-football reports of this pass, for the conjugate check
            for op in ops:
                code, text, elapsed, crash, during = run_command(
                    cli, op.argv(out_dir), probe=tracer is None)
                cal_after = calibrate()
                records.append((op, elapsed, statistics.mean([cal_before, cal_after, *during])))
                cal_before = cal_after
                with tracer.suspended() if tracer else contextlib.nullcontext():
                    n, fails, bad = outcome(op, code, text, crash, out_dir, seen)
                if op.command == "verify" and not op.main:
                    n = 1  # outside verify-sweep a verify is one operation, like any command
                attempted += n
                failed += min(n, len(fails))
                for f in fails:
                    key = json.dumps(f, sort_keys=True)
                    failures.setdefault(key, dict(f, count=0))["count"] += 1
                if bad is not None and len(invalid) < 20:
                    invalid.append(f"{op.command} {op.config.label}: {bad}")
            if len(records) == len(ops):
                first_pass_s = sum(t for _, t, _ in records)
            measured = sum(t * CAL_REF_S / c for _, t, c in records)
            if tracer is not None or measured >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    wall = perf_counter() - t_start

    timings, counts = timing_metrics([(op, t * CAL_REF_S / c) for op, t, c in records])
    raw, _ = timing_metrics([(op, t) for op, t, _ in records])
    return {
        "correct": not invalid,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ops_failed_share": (failed / attempted, "ratio"),
            **timings,
        },
        "detail": {
            "workload": workload,
            "seed": seed,
            "ops_per_pass": len(ops),
            "ops_run": len(records),
            "wall_s": wall,
            "first_pass_s": first_pass_s,
            **counts,
            "calibration_s": statistics.median(c for _, _, c in records),
            "unscaled": {k: v for k, (v, _) in raw.items()},
            "invalid": invalid,
            "failures": sorted(failures.values(), key=lambda f: (f["config"], f["command"])),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


def trace_metrics(tracer: Tracer) -> dict:
    stats = {name: {"calls": s.calls, "failed": s.failed, "self_s": s.self_s,
                    "total_s": s.total_s, "nfev": s.nfev}
             for name, s in tracer.stats.items() if s.calls}
    return {"functions": stats,
            "edges": sorted([p or "<op>", c, n] for (p, c), n in tracer.edges.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    tracer = Tracer() if args.trace else None
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.out_dir,
                              tracer, args.smoke)
    finally:
        shutil.rmtree(args.out_dir, ignore_errors=True)
    if tracer is not None:
        result["trace"] = trace_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
