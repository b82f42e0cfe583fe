"""Cost of an evolve_open CSV after the integration: per-row oracle against columns.

    pytest tests/bench_trajectory_rows.py --benchmark-only

The file name keeps it out of the default test collection.  One README-
style de Sitter trajectory of 4,000 samples (kGamma/k* = 10, p = 2.1,
ellH = 0.1, x from 10 to 1e-3) is integrated once; each benchmark then
turns it into CSV rows and writes them.  "per_row" is the per-sample
oracle of conftest (validated blocks, scalar squeezing and particle
statistics) written with one `_fmt` call per value; "columns" is
`cli._trajectory_rows` and `cli._write_csv`.  Each benchmark's extra_info
holds the best time per row; add --benchmark-json=FILE to keep them.
"""

import pytest

from conftest import trajectory_rows_oracle
from gausslind import cli

POINTS = 4000
CFG = {"cosmo": {"kGamma_over_kstar": 10.0, "p": 2.1, "ellH": 0.1},
       "grid": {"x_start": 10.0, "x_end": 1e-3, "points": POINTS}}
HEADER = ["x", "g11", "g12", "g22", "r", "phi", "lam", "purity",
          "sigma0", "n_pairs", "abs_c"]


@pytest.fixture(scope="module")
def trajectory():
    x_grid = cli._grid(CFG)
    return cli._evolve(CFG, x_grid, cli.cosmo_kernel(cli._cosmo_params(CFG))), x_grid


def per_row(traj, x_grid, path):
    rows = trajectory_rows_oracle(traj, x_grid, open_run=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(HEADER) + "\n")
        for row in rows:
            fh.write(",".join(cli._fmt(v) for v in row) + "\n")


def columns(traj, x_grid, path):
    cli._write_csv(path, HEADER, cli._trajectory_rows(traj, x_grid, open_run=True), "")


@pytest.mark.parametrize("mode", ["per_row", "columns"])
def test_trajectory_rows(benchmark, tmp_path, trajectory, mode):
    run = per_row if mode == "per_row" else columns
    benchmark.pedantic(run, args=(*trajectory, tmp_path / "open.csv"), rounds=10,
                       iterations=1, warmup_rounds=1)
    benchmark.extra_info.update(
        mode=mode, rows=POINTS, per_row_us=1e6 * benchmark.stats.stats.min / POINTS)
