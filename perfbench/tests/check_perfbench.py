"""The benchmark's own tests.  From the repository root:

    python3 -m pytest -q perfbench/tests/check_perfbench.py

The file name keeps these out of the default test collection: they start
processes and take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import speed  # noqa: E402
import validate  # noqa: E402
import worker  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    HEART_HALF,
    SPECIAL,
    WORKLOADS,
    Op,
    build_ops,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


def test_spec_names_the_workloads_and_the_sweep_seeds():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    why = SPEC["workloads"][0]["why"]
    assert f"default {DEFAULT_SEED}," in why and f"held-out {HELD_OUT_SEED}" in why


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = result_of(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--smoke"))
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_emits_every_per_layer_metric():
    result = result_of(run_bench("--workload", "grid-sample", "--seed", "3", "--seconds", "1",
                                 "--trace", "1", "--smoke"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["metric.write_density_grid_csv.self_s"]["value"] > 0
    assert result["metrics"]["cli.run_checks.self_s"]["value"] > 0


def test_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "decompose", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def _bindings():
    names = {id(fn) for _, fn in spans.traced_functions()}
    return {(id(owner), attr): value for owner, ns in spans._namespaces()
            for attr, value in list(ns.items()) if id(value) in names}


def test_traced_run_restores_every_wrapped_binding(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    result = worker.run_workload("grid-sample", 3, 0.0, str(tmp_path / "out"), tracer,
                                 smoke=True)
    assert result["correct"]
    # every binding was wrapped while the run lasted ...
    assert len(tracer.stats) == len(spans.traced_functions())
    assert tracer.stats["forms.coefficient_at"].calls > 0
    assert tracer.stats["metric.quad"].calls > 0
    assert tracer.bindings == []
    # ... and the original object is back at every name afterwards
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_run_installs_no_wrappers(tmp_path, monkeypatch):
    before = _bindings()
    checked = []

    def spy(cli, argv, **kwargs):
        now = _bindings()
        assert all(now[k] is before[k] for k in before)
        checked.append(argv[0])
        return real(cli, argv, **kwargs)

    real = worker.run_command
    monkeypatch.setattr(worker, "run_command", spy)
    worker.run_workload("verify-sweep", 3, 0.0, str(tmp_path / "out"), None, smoke=True)
    assert set(checked) == {"verify", "report", "sample", "plot"}


def test_ops_follow_the_seed():
    assert build_ops("verify-sweep", 5) == build_ops("verify-sweep", 5)
    assert build_ops("verify-sweep", 5) != build_ops("verify-sweep", 6)
    verifies = [op for op in build_ops("verify-sweep", 5) if op.command == "verify"]
    assert len({op.config for op in verifies}) == len(verifies) == 104
    reports = [op.config.pbeta for op in build_ops("decompose", 5) if op.command == "report"]
    assert {0.5 + 0j, 0.3 + 0.2j, 0.3 - 0.2j} <= set(reports)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert worker.tail_percentile([float(k) for k in range(104)]) == (90, 93.0)
    assert worker.tail_percentile([float(k) for k in range(20)]) == (50, 9.0)
    assert worker.tail_percentile([1.0] * 10) is None


def test_typed_failures_count_as_failed_not_invalid():
    op = Op("verify", SPECIAL)
    n, fails, bad = worker.outcome(op, 1, "verification aborted: x\n", None, "", {})
    assert (n, len(fails), bad) == (8, 8, None)
    n, fails, bad = worker.outcome(Op("plot", SPECIAL), 1, "computation failed: y\n", None,
                                   "", {})
    assert (n, len(fails), bad) == (1, 1, None)
    assert worker.outcome(Op("plot", SPECIAL), 1, "garbage\n", None, "", {})[2] is not None


def test_long_commands_are_calibrated_while_they_run(tmp_path):
    from conemetrics import cli

    argv = ["sample", "--family=heart", "--beta=0.5", "--grid=-3,3,-3,3,201,201",
            f"--out={tmp_path}"]
    code, _, seconds, crash, during = worker.run_command(cli, argv, probe=True)
    assert (code, crash) == (0, None)
    assert len(during) >= int(seconds / speed.PROBE_PERIOD_S) - 1 >= 1


def test_report_checks_catch_bad_triangles():
    op = Op("report", SPECIAL)
    good = {"ell1": 0.03403487580889042, "ell2": 0.050839239523066126,
            "L01": 0.016807609636084953, "theta": 0.00794293162808698}
    seen = {}
    assert validate.check_report(op, 0, json.dumps(good), seen) == (1, [], None)
    mirror = Op("report", replace(SPECIAL, pbeta=0.3 - 0.2j))
    shifted = dict(good, L01=good["L01"] + 1e-6)
    assert validate.check_report(mirror, 0, json.dumps(shifted), seen)[2] is not None
    for bad in (dict(good, L01=4.1), dict(good, ell1=0.2), dict(good, L01=0.09)):
        assert validate.check_report(op, 0, json.dumps(bad), {})[2] is not None
    n, fails, bad = validate.check_report(op, 1, json.dumps({"error": "x"}), {})
    assert (n, len(fails), bad) == (1, 1, None)
    assert validate.check_report(op, 0, json.dumps({"error": "x"}), {})[2] is not None


def test_sample_checks_catch_bad_rows(tmp_path):
    op = Op("sample", HEART_HALF, "-1,1,-1,1,2,2")
    rows = ["re,im,phi,density,curvature", "-1,-1,2.5,0.1,1", "1,-1,nan,nan,nan",
            "-1,1,1.5,0.2,1", "1,1,2,0.3,1"]
    path = tmp_path / "sample.csv"
    path.write_text("\n".join(rows) + "\n")
    assert validate.check_sample(op, 0, f"{path}\n", str(tmp_path)) == (1, [], None)
    for k, bad in ((1, "-1,-1,4.5,0.1,1"), (3, "-1,1,1.5,0.0,1"), (4, "1,1,2,inf,1")):
        path.write_text("\n".join(rows[:k] + [bad] + rows[k + 1:]) + "\n")
        assert validate.check_sample(op, 0, f"{path}\n", str(tmp_path))[2] is not None
    # a zero of the differential is the one place where the density vanishes
    zero = Op("sample", HEART_HALF, "-1,0,-1,0,2,2")
    path.write_text("re,im,phi,density,curvature\n-1,-1,2,0.1,1\n0,-1,2,0.1,1\n"
                    "-1,0,2,0.1,1\n0,0,2,0,nan\n")
    assert validate.check_sample(zero, 0, f"{path}\n", str(tmp_path)) == (1, [], None)
