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
