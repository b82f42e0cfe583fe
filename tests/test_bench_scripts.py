"""Every `tests/bench_*.py` runs once, with its benchmarks disabled.

The default collection skips those scripts (their names do not start
with `test_`), yet they import private names of the package and of
`conftest`; this runs them all in one fresh pytest with
`--benchmark-disable`, so each benchmarked function is called once and
its assertions hold.  Skipped where pytest-benchmark is not installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gausslind

TESTS = Path(__file__).resolve().parent
SRC = str(Path(gausslind.__file__).resolve().parents[1])


def test_bench_scripts_run():
    pytest.importorskip("pytest_benchmark")
    scripts = sorted(str(p) for p in TESTS.glob("bench_*.py"))
    assert scripts
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--benchmark-disable", *scripts],
                         capture_output=True, text=True, env=env, cwd=TESTS.parent,
                         timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
