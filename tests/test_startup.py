"""The import set at start-up: no scipy module at all is loaded by
importing the package or by the modes that call no scipy integrator (the
approx discord_map, the transport discord_map, whose phases are
collocated, ellipse_series, spectrum); the modes that integrate load
scipy.integrate at their first integrator call.  Each case runs in a
fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gausslind

SRC = str(Path(gausslind.__file__).resolve().parents[1])

CHILD = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
RUN = """
from gausslind.cli import main
assert main(sys.argv[1:]) == 0
"""
GRID = {"x_start": 10.0, "x_end": 1.0, "points": 3}
SMALL_MAP = {"mode": "discord_map", "map_points": [2, 2], "x": 0.05,
             "cosmo": {"ellH": 0.2}, "p_range": [2.5, 3.5]}


def _scipy_modules(body: str, *args: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD.format(body=body), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["gausslind", "gausslind.cli"])
def test_import_leaves_integrate_out(module):
    # no scipy module at all, scipy.integrate among them
    assert _scipy_modules(f"import {module}") == []


@pytest.mark.parametrize("cfg, integrates", [
    ({"mode": "discord_map"}, False),  # the default 40x40 approx map
    ({"mode": "ellipse_series", "grid": GRID}, False),
    ({"mode": "spectrum", "cosmo": {"kGamma_over_kstar": 10.0, "p": 2.1, "ellH": 0.1}},
     False),
    ({"mode": "evolve_open", "preset": "free", "source_const": 0.05, "grid": GRID}, True),
    (dict(SMALL_MAP, method="exact"), True),
    (dict(SMALL_MAP, method="transport"), False),
], ids=["discord_map", "ellipse_series", "spectrum", "evolve_open", "exact_map",
        "transport_map"])
def test_run_loads_integrate_only_to_integrate(tmp_path, cfg, integrates):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(cfg, output_path="o.csv")))
    loaded = _scipy_modules(RUN, "run", str(path), "--out", str(tmp_path))
    if integrates:
        assert "scipy.integrate" in loaded
    else:
        assert loaded == []
    assert (tmp_path / "o.csv").stat().st_size > 0
