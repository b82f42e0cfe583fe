"""Every CSV the CLI writes, byte for byte, against a per-value oracle.

The CLI formats every mode column by column, a discord map a block of
`_plane_blocks` at a time with each label once per block.  The oracle here
recomputes each mode's values and writes every file one value at a time
with its own copy of the per-value formatter, so a label that drifts from
its cells, or a value formatted another way, shows as a byte difference.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from conftest import trajectory_rows_oracle
from gausslind import __version__, cli, cosmology
from gausslind.closed import wigner_ellipse
from gausslind.cosmology import de_sitter_squeezing, power_spectrum_correction
from gausslind.symplectic import SqueezingState


def fmt(v) -> str:
    """Shortest round-trip text of one value; booleans as true/false."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def oracle_bytes(cfg, header, rows) -> bytes:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    lines = [f"# gausslind {__version__}",
             f"# config sha256: {hashlib.sha256(canon.encode()).hexdigest()}",
             ",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def spy(monkeypatch, name):
    """Record the arguments and result of every call of cli.<name>."""
    calls, real = [], getattr(cli, name)

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(cli, name, recorded)
    return calls


def run(tmp_path, cfg) -> bytes:
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    return (tmp_path / cfg["output_path"]).read_bytes()


def map_rows(cfg, res):
    n_p, n_k = cfg.get("map_points", (40, 40))
    p_vals = np.linspace(*cfg.get("p_range", (0.1, 9.9)), n_p)
    k_vals = np.linspace(*cfg.get("log10_kGamma_range", (-10.0, 6.0)), n_k)
    return [[p, k, res.discord[i, j], math.exp(-2.0 * float(res.log_sigma_zero[i, j]))]
            for i, p in enumerate(p_vals) for j, k in enumerate(k_vals)]


MAP_HEADER = ["p", "log10_kGamma_kstar", "discord", "purity"]
TRAJECTORY_HEADER = ["x", "g11", "g12", "g22", "r", "phi", "lam", "purity"]

MAPS = {
    "approx_default": ({}, None),
    # p up to 8.5: higher p rows at x = 0.05 draw quadrature warnings
    "exact": ({"method": "exact", "map_points": [5, 6], "x": 0.05, "p_range": [0.5, 8.5],
               "cosmo": {"ellH": 0.1}}, None),
    "transport": ({"method": "transport", "map_points": [4, 5], "x": 0.05,
                   "cosmo": {"ellH": 0.1}}, None),
    # rows split into pieces of 7, 7 and 3 cells
    "approx_row_split": ({"map_points": [5, 17]}, 7),
    # four whole rows per block, then one
    "approx_rows_per_block": ({"map_points": [5, 6]}, 24),
    "exact_row_split": ({"method": "exact", "map_points": [3, 9], "x": 0.05,
                         "p_range": [0.5, 8.5], "cosmo": {"ellH": 0.1}}, 4),
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_discord_map(tmp_path, monkeypatch, name):
    extra, cells = MAPS[name]
    if cells is not None:
        monkeypatch.setattr(cosmology, "PLANE_BLOCK_CELLS", cells)
        monkeypatch.setattr(cli, "PLANE_BLOCK_CELLS", cells)
    cfg = {"mode": "discord_map", "output_path": "map.csv", **extra}
    calls = spy(monkeypatch, "discord_cosmo")
    got = run(tmp_path, cfg)
    assert got == oracle_bytes(cfg, MAP_HEADER, map_rows(cfg, calls[0][1]))


TRAJECTORIES = {
    "evolve_open": {"mode": "evolve_open",
                    "cosmo": {"kGamma_over_kstar": 10.0, "p": 2.1, "ellH": 0.1},
                    "grid": {"x_start": 10.0, "x_end": 1e-3, "points": 300}},
    "evolve_open_free": {"mode": "evolve_open", "preset": "free", "source_const": 0.3,
                         "grid": {"x_start": 10.0, "x_end": 0.01, "points": 60}},
    "evolve_closed": {"mode": "evolve_closed",
                      "grid": {"x_start": 10.0, "x_end": 0.01, "points": 80}},
}


@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_trajectory(tmp_path, monkeypatch, name):
    cfg = dict(TRAJECTORIES[name], output_path="traj.csv")
    open_run = cfg["mode"] == "evolve_open"
    calls = spy(monkeypatch, "_evolve")
    got = run(tmp_path, cfg)
    (_, x_grid, _), traj = calls[0]
    header = TRAJECTORY_HEADER + (["sigma0", "n_pairs", "abs_c"] if open_run else [])
    assert got == oracle_bytes(cfg, header, trajectory_rows_oracle(traj, x_grid, open_run))


def test_ellipse_series(tmp_path):
    cfg = {"mode": "ellipse_series", "output_path": "ell.csv",
           "grid": {"x_start": 10.0, "x_end": 0.01, "points": 40}}
    rows = []
    for x in np.geomspace(10.0, 0.01, 40).tolist():
        ell = wigner_ellipse(SqueezingState(*de_sitter_squeezing(x), 1.0), math.sqrt(2.0))
        rows.append([-math.log(x), ell.semi_major, ell.semi_minor, ell.tilt,
                     ell.semi_major / ell.semi_minor])
    assert run(tmp_path, cfg) == oracle_bytes(
        cfg, ["efolds", "semi_major", "semi_minor", "tilt", "axis_ratio"], rows)


@pytest.mark.parametrize("p", [3.0, 9.0])  # time_dependent false, true
def test_spectrum(tmp_path, p):
    cfg = {"mode": "spectrum", "output_path": "spec.csv", "points": 9,
           "cosmo": {"kGamma_over_kstar": 1.0, "p": p, "ellH": 0.1}}
    params = cli._cosmo_params(cfg)
    rows = []
    for k in np.geomspace(1e-2, 1e2, 9).tolist():
        corr = power_spectrum_correction(params, k)
        rows.append([k, corr.value, corr.regime.value, corr.time_dependent])
    got = run(tmp_path, cfg)
    assert got == oracle_bytes(
        cfg, ["k_over_kstar", "dP_over_P", "regime", "time_dependent"], rows)
    assert got.count(b",true\n" if p > 8.0 else b",false\n") == 9
