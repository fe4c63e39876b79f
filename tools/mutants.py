"""Mutation check of the tests that guard the Newton continuation.

    python3 tools/mutants.py [--root DIR] [-- PYTEST_ARGS ...]

It copies ``src/`` and ``tests/`` of the repository (or of ``--root``) into
a temporary directory, and runs the geodesics tests there
(``tests/test_geodesics.py``, or the pytest arguments given after ``--``):
once on the copy as it is, which must pass, and once per mutant, on a fresh
copy with the mutant applied as an exact text replacement.  Each mutant
plants one class of defect that the continuation can have:

- a branch jump of the log in ``_correct`` or in ``_node_lift``, where
  ``log(d) - log(base)`` replaces ``log(d / base)``;
- a missed pole: ``_correct`` leaves the pole of its own log chart out of
  the distance to the nearest pole, so a path runs into that pole;
- a wrong sheet at a zero: ``_node_lift`` adds 2 pi i to the log in the
  zero's chart, so a point near the zero lands on the other square root,
  where F takes the same value;
- a linear prediction in the zero's chart (``_predict``), where
  ``log(Q - Q(a))`` is the near-linear coordinate.  Its corrector still
  lands on the right sheet, so this mutant costs nodes and moves an
  arrival's last digits rather than the curve.

It prints, for each mutant, the tests that failed on it.  The exit status is
1 when a mutant survives (every test passes with it), when the unmutated
copy fails, or when a mutant's anchor text does not occur exactly once in
its file.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the tests run on each mutant when no pytest arguments are given
DEFAULT_TESTS = ("tests/test_geodesics.py",)

#: a mutant's test run that takes longer than this counts as killed
TIMEOUT_S = 600


class Mutant(NamedTuple):
    path: str
    anchor: str
    replacement: str


GEODESICS = "src/conemetrics/geodesics.py"

MUTANTS = {
    "correct-log-branch": Mutant(
        GEODESICS,
        "q_new += r * (x_new - x) if at_vertex else r * cmath.log(d / base)",
        "q_new += r * (x_new - x) if at_vertex else r * (cmath.log(d) - cmath.log(base))"),
    "node-lift-log-branch": Mutant(
        GEODESICS,
        "log_ratio = np.log(d / base)",
        "log_ratio = np.log(d) - np.log(base)"),
    "correct-missed-pole": Mutant(
        GEODESICS,
        "            if dist < nearest:\n",
        "            if dist < nearest and not at_vertex:\n"),
    "node-lift-zero-sheet": Mutant(
        GEODESICS,
        "step[at_zero] = np.log((target[at_zero] - qv) / g) * g",
        "step[at_zero] = (np.log((target[at_zero] - qv) / g) + 2j * np.pi) * g"),
    "predict-zero-linear": Mutant(
        GEODESICS,
        "    if chart is None or chart.qv is None:\n        return (target - q) / slope\n",
        "    if True:\n        return (target - q) / slope\n"),
}


def anchor_problems(root: str = ROOT) -> list[str]:
    """One line for each mutant whose anchor does not occur exactly once under ``root``."""
    problems = []
    for name, mutant in MUTANTS.items():
        with open(os.path.join(root, mutant.path), encoding="utf-8") as fh:
            count = fh.read().count(mutant.anchor)
        if count != 1:
            problems.append(f"{name}: the anchor occurs {count} times in {mutant.path}")
    return problems


def copy_tree(root: str, dest: str, mutant: Mutant | None) -> None:
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(root, part), os.path.join(dest, part),
                        ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = os.path.join(dest, mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.anchor, mutant.replacement, 1))


def failed_tests(root: str, mutant: Mutant | None, pytest_args: list[str]) -> list[str] | None:
    """The ids of the tests that fail on a copy of ``root`` with ``mutant`` applied,
    or None when the run times out."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy_tree(root, tmp, mutant)
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
               *pytest_args]
        try:
            run = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, flags=re.MULTILINE)
    if run.returncode != 0 and not failed:
        failed = [f"pytest exited {run.returncode}"]
    return failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=ROOT,
                        help="the tree to mutate (default: this repository)")
    parser.add_argument("pytest_args", nargs="*", help="pytest arguments, after --")
    args = parser.parse_args(argv)
    args.pytest_args = args.pytest_args or list(DEFAULT_TESTS)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    problems = anchor_problems(args.root)
    for line in problems:
        print(line)
    if problems:
        return 1
    base = failed_tests(args.root, None, args.pytest_args)
    if base != []:
        print(f"the unmutated copy fails: {base or 'timed out'}")
        return 1
    survivors = []
    for name, mutant in MUTANTS.items():
        failed = failed_tests(args.root, mutant, args.pytest_args)
        if failed is None:
            print(f"{name}: killed (timed out after {TIMEOUT_S} s)")
        elif failed:
            print(f"{name}: killed by {len(failed)} tests")
            for test in failed:
                print(f"  {test}")
        else:
            print(f"{name}: SURVIVED")
            survivors.append(name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
