import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_identity_sweep():
    path = os.path.join(ROOT, "tools", "identity_sweep.py")
    spec = importlib.util.spec_from_file_location("identity_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_sweep_parses_its_arguments():
    sweep = load_identity_sweep()
    args = sweep.parse_args(["--parent", "HEAD~1", "--expect", "*/plot/plot.svg",
                             "--expect", "*/verify/stdout:traced-length"])
    assert args.parent == "HEAD~1"
    assert args.expect == ["*/plot/plot.svg", "*/verify/stdout:traced-length"]
    assert args.keep is None
    assert sweep.parse_args(["--parent", "abc123", "--keep", "out"]).keep == "out"
    with pytest.raises(SystemExit):
        sweep.parse_args([])
