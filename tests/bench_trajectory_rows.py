"""Cost of the CSV layer: per-value oracles against the CLI's line writers.

    pytest tests/bench_trajectory_rows.py --benchmark-only

The file name keeps it out of the default test collection.

Trajectory: one README-style de Sitter trajectory of 4,000 samples
(kGamma/k* = 10, p = 2.1, ellH = 0.1, x from 10 to 1e-3) is integrated
once; each benchmark then turns it into CSV rows and writes them.
"per_row" is the per-sample oracle of conftest (validated blocks, scalar
squeezing and particle statistics) written with one `repr` call per value;
"columns" is `cli.run_evolve_open` with its integration replaced by the
trajectory: its columns joined into lines by `cli._lines` and written by
`cli._write_csv`.  Both files are checked to be equal.

Map: the default 40x40 approx `discord_map` is computed once; "per_value"
writes it as the CLI did before its lines were formatted by column (a
value row per cell, a type test per value), "lines" is `cli._map_lines`
written by `cli._write_csv`.  Both files are checked to be equal.

Each benchmark's extra_info holds the best time per row (trajectory) or
per cell (map); add --benchmark-json=FILE to keep them.
"""

import math

import numpy as np
import pytest

from conftest import default_map, trajectory_rows_oracle
from gausslind import cli
from gausslind.cosmology import discord_cosmo

POINTS = 4000
CFG = {"cosmo": {"kGamma_over_kstar": 10.0, "p": 2.1, "ellH": 0.1},
       "grid": {"x_start": 10.0, "x_end": 1e-3, "points": POINTS}}
HEADER = ["x", "g11", "g12", "g22", "r", "phi", "lam", "purity",
          "sigma0", "n_pairs", "abs_c"]
MAP_HEADER = ["p", "log10_kGamma_kstar", "discord", "purity"]


@pytest.fixture(scope="module")
def trajectory():
    x_grid = cli._grid(CFG)
    return cli._evolve(CFG, x_grid, cli.cosmo_kernel(cli._cosmo_params(CFG))), x_grid


def per_row(traj, x_grid, path):
    rows = trajectory_rows_oracle(traj, x_grid, open_run=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(HEADER) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")


def columns(traj, x_grid, path):
    cli.run_evolve_open(dict(CFG, mode="evolve_open"), path, "")


@pytest.mark.parametrize("mode", ["per_row", "columns"])
def test_trajectory_rows(benchmark, tmp_path, monkeypatch, trajectory, mode):
    monkeypatch.setattr(cli, "_evolve", lambda cfg, x_grid, source: trajectory[0])
    run = per_row if mode == "per_row" else columns
    benchmark.pedantic(run, args=(*trajectory, tmp_path / "open.csv"), rounds=10,
                       iterations=1, warmup_rounds=1)
    per_row(*trajectory, tmp_path / "want.csv")
    assert data_lines(tmp_path / "open.csv") == data_lines(tmp_path / "want.csv")
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info.update(
            mode=mode, rows=POINTS, per_row_us=1e6 * benchmark.stats.stats.min / POINTS)


@pytest.fixture(scope="module")
def approx_map():
    x, theta, params, ps, couplings = default_map()
    res = discord_cosmo(x, theta, params, method="approx", kGamma_over_kstar=couplings, p=ps)
    return np.linspace(0.1, 9.9, 40), np.linspace(-10.0, 6.0, 40), res


def map_per_value(p_vals, k_vals, res, path):
    k_list = k_vals.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(MAP_HEADER) + "\n")
        for p, discord, ln_s0 in zip(p_vals.tolist(), res.discord, res.log_sigma_zero):
            purity = [math.exp(-2.0 * v) for v in ln_s0.tolist()]
            for row in zip([p] * len(k_list), k_list, discord.tolist(), purity):
                fh.write(",".join([repr(v) if type(v) is float else str(v)
                                   for v in row]) + "\n")


def map_lines(p_vals, k_vals, res, path):
    cli._write_csv(path, MAP_HEADER, cli._map_lines(p_vals, k_vals, res), "")


def data_lines(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("mode", ["per_value", "lines"])
def test_map_rows(benchmark, tmp_path, approx_map, mode):
    run = map_per_value if mode == "per_value" else map_lines
    path = tmp_path / "map.csv"
    benchmark.pedantic(run, args=(*approx_map, path), rounds=20, iterations=1,
                       warmup_rounds=1)
    map_per_value(*approx_map, tmp_path / "want.csv")
    assert data_lines(path) == data_lines(tmp_path / "want.csv")
    if benchmark.stats:  # None under --benchmark-disable
        cells = 40 * 40
        benchmark.extra_info.update(
            mode=mode, cells=cells, per_cell_us=1e6 * benchmark.stats.stats.min / cells)
