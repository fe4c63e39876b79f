import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool(name):
    path = os.path.join(ROOT, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_sweep_parses_its_arguments():
    sweep = load_tool("identity_sweep")
    args = sweep.parse_args(["--parent", "HEAD~1", "--expect", "*/plot/plot.svg",
                             "--expect", "*/verify/stdout:traced-length"])
    assert args.parent == "HEAD~1"
    assert args.expect == ["*/plot/plot.svg", "*/verify/stdout:traced-length"]
    assert args.keep is None
    assert sweep.parse_args(["--parent", "abc123", "--keep", "out"]).keep == "out"
    with pytest.raises(SystemExit):
        sweep.parse_args([])


def test_bench_pairs_parses_its_arguments():
    pairs = load_tool("bench_pairs")
    args = pairs.parse_args(["--parent", "HEAD~1", "--out", "BENCH_0.json",
                             "--run", "verify-sweep:1", "--run", "verify-sweep:7919",
                             "--pairs", "5", "--role", "confirm"])
    assert (args.parent, args.change, args.out) == ("HEAD~1", "HEAD", "BENCH_0.json")
    assert args.run == [("verify-sweep", 1), ("verify-sweep", 7919)]
    assert (args.pairs, args.role) == (5, "confirm")
    # by default every workload of the benchmark on seed 1, three pairs each
    args = pairs.parse_args(["--parent", "abc123", "--out", "out.json"])
    assert args.run == [("verify-sweep", 1), ("grid-sample", 1), ("decompose", 1)]
    assert args.pairs == 3
    for bad in ([], ["--parent", "abc123"], ["--out", "out.json"],
                ["--parent", "abc123", "--out", "out.json", "--run", "decompose"],
                ["--parent", "abc123", "--out", "out.json", "--run", "decompose:x"],
                ["--parent", "abc123", "--out", "out.json", "--pairs", "0"]):
        with pytest.raises(SystemExit):
            pairs.parse_args(bad)


def test_identity_sweep_draws_a_seeded_wide_box():
    sweep = load_tool("identity_sweep")
    assert sweep.parse_args(["--parent", "HEAD~1"]).wide_box == 0
    assert sweep.parse_args(["--parent", "HEAD~1", "--wide-box", "300"]).wide_box == 300
    for bad in ("-1", "x", "1.5"):
        with pytest.raises(SystemExit):
            sweep.parse_args(["--parent", "HEAD~1", "--wide-box", bad])
    configs = sweep.wide_box_configs(4)
    assert configs == sweep.wide_box_configs(4)
    assert [name for name, _, _ in configs] == ["w000", "w001", "w002", "w003"]
    assert all(flags[0] == "--family=threefb" for _, flags, _ in configs)


def test_identity_sweep_samples_the_full_grids_of_grid_sample():
    # the 41 x 41 grids of the sweep are written in one part; these two are cut
    sweep = load_tool("identity_sweep")
    workloads = sweep._workloads()
    configs = sweep.full_grid_configs()
    assert [name for name, _, _ in configs] == ["g000", "g001"]
    assert sorted(flags for _, flags, _ in configs) == sorted(
        cfg.flags() for cfg in (workloads.HEART_HALF, workloads.SPECIAL))


def test_identity_sweep_samples_the_grids_of_the_arm_screen():
    # one grid centred on each finite mark (3 of the heart, 5 of the special
    # football), then three hearts with a large |c| on the default grid
    sweep = load_tool("identity_sweep")
    workloads = sweep._workloads()
    configs = sweep.screen_grid_configs()
    assert [name for name, _, _, _ in configs] == [f"m{i:03d}" for i in range(8)] + [
        "u000", "u001", "u002"]
    heart, special = workloads.HEART_HALF.flags(), workloads.SPECIAL.flags()
    assert [flags for _, flags, _, _ in configs[:8]] == [heart] * 3 + [special] * 5
    # the heart's zero at 0 and its poles at 1 and -1
    centres = []
    for _, _, _, grid in configs[:3]:
        x0, x1, y0, y1, nx, ny = grid.split(",")
        assert (nx, ny) == ("41", "41")
        assert float(x1) - float(x0) == pytest.approx(2e-4)
        centres.append(complex((float(x0) + float(x1)) / 2, (float(y0) + float(y1)) / 2))
    assert sorted(centres, key=lambda z: z.real) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)
    assert [(flags, grid) for _, flags, _, grid in configs[8:]] == [
        (workloads.Config("heart", beta=0.5, c=c).flags(), "-3,3,-3,3,61,61")
        for c in (300.0, -300.0, 700.0)]


def bench_run(workload, seed, side, pair, failed, attempted, value):
    metrics = {"sample.cells_per_s": {"value": value, "unit": "1/s"}}
    return {"workload": workload, "seed": seed, "side": side, "pair": pair,
            "result": {"correct": True, "failed": failed, "attempted": attempted,
                       "metrics": metrics}}


def test_bench_pairs_sums_failed_operations_over_the_runs():
    pairs = load_tool("bench_pairs")
    metrics = [{"name": "sample.cells_per_s", "better": "higher"}]
    # every run of grid-sample reads a failed share of 0 or 1/1000: the change's
    # median share equals the parent's, but it failed one operation more
    runs = [bench_run("grid-sample", 1, "parent", 0, 0, 1000, 100.0),
            bench_run("grid-sample", 1, "change", 0, 1, 1000, 160.0),
            bench_run("grid-sample", 1, "change", 1, 1, 1000, 150.0),
            bench_run("grid-sample", 1, "parent", 1, 0, 1000, 110.0),
            bench_run("grid-sample", 1, "parent", 2, 1, 1000, 90.0),
            bench_run("grid-sample", 1, "change", 2, 0, 1000, 170.0),
            bench_run("decompose", 1, "parent", 0, 2, 500, 10.0),
            bench_run("decompose", 1, "change", 0, 1, 500, 10.0),
            # a run that crashed returns no result and counts in neither sum
            {"workload": "decompose", "seed": 1, "side": "change", "pair": 1, "result": None}]
    assert pairs.failures(runs) == {
        ("grid-sample", 1, "parent"): (1, 3000), ("grid-sample", 1, "change"): (2, 3000),
        ("decompose", 1, "parent"): (2, 500), ("decompose", 1, "change"): (1, 500)}
    assert pairs.more_failures(runs) == [("grid-sample", 1)]
    assert pairs.summary(runs, metrics) == [
        "decompose, seed 1, 1 pairs",
        "  failed/attempted over all runs: parent 2/500, change 1/500",
        "  sample.cells_per_s     10 [10, 10] -> 10 [10, 10]  1.000x  wins 0/1",
        "grid-sample, seed 1, 3 pairs",
        "  failed/attempted over all runs: parent 1/3000, change 2/3000  MORE FAILURES",
        "  sample.cells_per_s     100 [90, 110] -> 160 [150, 170]  1.600x  wins 3/3",
    ]
