"""Benchmark of the conemetrics CLI: one workload per call, run from the repo root.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 18 --trace 0

``--trace 0`` measures set-up time (median of several fresh interpreters
importing ``conemetrics.cli``, scaled to the reference speed of ``speed``
like every time the benchmark reports), then runs the workload untraced in a fresh
worker process and reports every end-to-end metric.  ``--trace 1`` runs one
pass of the workload untraced and one pass traced, each in a fresh process,
and reports the per-layer metrics plus the tracing overhead (traced minus
untraced time of the same pass).  Every worker runs with one BLAS/OpenMP
thread.  The last stdout line is the result object; the line before it holds
the details: the environment, every failed operation and the trace tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import CAL_REF_S, calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: fresh interpreters timed for setup_s
SETUP_SPAWNS = 3

#: a run must end within this many seconds
RUN_LIMIT_S = 175.0

_LAYER_FIELDS = (
    ("forms.coefficient_at", ("calls", "self_s")),
    ("forms.potential_at", ("calls", "self_s")),
    ("forms.finite_zeros", ("calls", "self_s")),
    ("metric.density_at", ("calls", "self_s")),
    ("metric.gauss_curvature_fd", ("calls", "self_s")),
    ("metric.singular_points", ("calls", "self_s")),
    ("metric.cone_angle_estimate", ("calls", "self_s")),
    ("metric.quad", ("calls",)),
    ("metric.write_density_grid_csv", ("self_s",)),
    ("families.solve_pole_positions", ("calls", "self_s")),
    ("geodesics.trace_radial_preimage", ("calls", "self_s")),
    ("geodesics.cone_approach_length", ("calls", "self_s")),
    ("geodesics.solve_ivp", ("calls", "nfev")),
    ("geodesics.l01_geodesic", ("self_s",)),
    ("geodesics.geodesic_between", ("calls", "failed", "useful_ratio")),
    ("svg.add_level_sets", ("self_s",)),
    ("svg.SvgCanvas.render", ("self_s",)),
    ("cli.run_checks", ("self_s",)),
)

#: per-layer metric -> (traced function, field, unit)
_UNITS = {"self_s": "s", "useful_ratio": "ratio"}
PER_LAYER = {f"{fn}.{field}": (fn, field, _UNITS.get(field, "count"))
             for fn, fields in _LAYER_FIELDS for field in fields}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def source_digest(root: str) -> str:
    """sha256 over the package sources, to tie a result to code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "conemetrics")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def measure_setup(root: str, env: dict, spawns: int) -> tuple[float, list[float]]:
    """Median, scaled to the reference speed, and all unscaled times of ``spawns``
    fresh interpreters importing the CLI, after one untimed import."""
    subprocess.run([sys.executable, "-c", "import conemetrics.cli"], cwd=root, env=env,
                   check=True, timeout=60)
    scaled, raw = [], []
    cal_before = calibrate()
    for _ in range(spawns):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import conemetrics.cli"], cwd=root, env=env,
                       check=True, timeout=60)
        raw.append(perf_counter() - t0)
        cal_after = calibrate()
        scaled.append(raw[-1] * CAL_REF_S / (0.5 * (cal_before + cal_after)))
        cal_before = cal_after
    return statistics.median(scaled), raw


def run_worker(root: str, env: dict, args, trace: int, seconds: float, out_dir: str,
               deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def layer_metrics(functions: dict) -> dict:
    out = {}
    for name, (fn, field, unit) in PER_LAYER.items():
        s = functions.get(fn, {"calls": 0, "failed": 0, "self_s": 0.0, "nfev": 0})
        if field == "useful_ratio":
            value = (s["calls"] - s["failed"]) / s["calls"] if s["calls"] else 0.0
        else:
            value = s[field]
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny op lists and one set-up spawn, for the benchmark's own tests")
    args = ap.parse_args(argv)

    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "conemetrics", "cli.py")):
        return fail("run from the repository root: src/conemetrics/cli.py not found")
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)
    detail = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "threads": THREAD_ENV,
    }
    work_root = os.path.join(root, ".perfbench_work")
    out_dir = os.path.join(work_root, f"{os.getpid()}-{args.workload}")
    try:
        if args.trace == 0:
            setup_s, setup_all = measure_setup(root, env, 1 if args.smoke else SETUP_SPAWNS)
            res = run_worker(root, env, args, 0, args.seconds, out_dir, deadline)
            metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
            metrics.update({k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()})
            detail.update(res["detail"], setup_s_unscaled=setup_all)
            correct, attempted, failed = res["correct"], res["attempted"], res["failed"]
        else:
            plain = run_worker(root, env, args, 0, 0.0, out_dir, deadline)
            traced = run_worker(root, env, args, 1, 0.0, out_dir, deadline)
            metrics = layer_metrics(traced["trace"]["functions"])
            overhead = traced["detail"]["first_pass_s"] - plain["detail"]["first_pass_s"]
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            metrics["trace.overhead_share"] = {
                "value": overhead / plain["detail"]["first_pass_s"], "unit": "ratio"}
            detail.update(traced["detail"], trace=traced["trace"],
                          untraced_first_pass_s=plain["detail"]["first_pass_s"])
            correct = plain["correct"] and traced["correct"]
            attempted, failed = traced["attempted"], traced["failed"]
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        return fail(f"{args.workload}: {exc}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)
    detail["run_s"] = perf_counter() - started
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
