"""The import set at start-up: scipy.integrate is loaded by the first
integrator call, so importing the package, and the modes that integrate
nothing (the approx discord_map, ellipse_series, spectrum), never load it.
Each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gausslind

SRC = str(Path(gausslind.__file__).resolve().parents[1])

CHILD = """
import sys
{body}
print("scipy.integrate" in sys.modules)
"""
RUN = """
from gausslind.cli import main
assert main(sys.argv[1:]) == 0
"""
GRID = {"x_start": 10.0, "x_end": 1.0, "points": 3}


def _loads_integrate(body: str, *args: str) -> bool:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD.format(body=body), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


@pytest.mark.parametrize("module", ["gausslind", "gausslind.cli"])
def test_import_leaves_integrate_out(module):
    assert not _loads_integrate(f"import {module}")


@pytest.mark.parametrize("cfg, loads", [
    ({"mode": "discord_map"}, False),  # the default 40x40 approx map
    ({"mode": "ellipse_series", "grid": GRID}, False),
    ({"mode": "spectrum", "cosmo": {"kGamma_over_kstar": 10.0, "p": 2.1, "ellH": 0.1}},
     False),
    ({"mode": "evolve_open", "preset": "free", "source_const": 0.05, "grid": GRID}, True),
], ids=["discord_map", "ellipse_series", "spectrum", "evolve_open"])
def test_run_loads_integrate_only_to_integrate(tmp_path, cfg, loads):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(cfg, output_path="o.csv")))
    assert _loads_integrate(RUN, "run", str(path), "--out", str(tmp_path)) is loads
    assert (tmp_path / "o.csv").exists()
