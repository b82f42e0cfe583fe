"""Correctness checks on the CSV files that `gausslind run` writes.

Every output is parsed and checked against the scenario that produced it:
header comments, column names, row count, the requested grid, finite
values and the physical ranges (discord >= 0, 0 < purity <= 1, and for
trajectories lam >= 1, sigma0 = sqrt(lam), purity = 1/lam).  For the
reference seed the values are also compared with `reference.json`, which
was recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

MAP_COLUMNS = ["p", "log10_kGamma_kstar", "discord", "purity"]
EVOLVE_COLUMNS = ["x", "g11", "g12", "g22", "r", "phi", "lam", "purity",
                  "sigma0", "n_pairs", "abs_c"]

REFERENCE_SEED = 0
# rows kept per scenario in the reference file
REFERENCE_ROWS = 24
# (ATOL, RTOL) per workload.  The closed-form routes allow the planned
# array rewrite of the approx map (<= 1e-12 absolute) with room to spare,
# and still catch a wrong branch or a wrong cell order.  The transport
# routes also allow an ODE engine change at the solver tolerance (rtol
# 1e-11 per step, accumulated along a trajectory).
REFERENCE_TOL = {
    "map_approx": (1e-9, 1e-9),
    "map_exact": (1e-9, 1e-9),
    "map_transport": (1e-9, 1e-6),
    "evolve_open": (1e-9, 1e-6),
}
# Strictly positive columns that span many decades (purity reaches 1e-169
# on the approx maps) are compared by relative error alone:
# |value - reference| <= RTOL |reference|.  The other columns, discord at
# round-off near 0 among them, allow |value - reference| <= ATOL + RTOL
# |reference|.
RELATIVE_COLUMNS = {"x", "g11", "g22", "lam", "purity", "sigma0"}


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """(comment lines, header, float rows) of one output file."""
    comments, body = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            (comments if line.startswith("#") else body).append(line.rstrip("\n"))
    header = body[0].split(",") if body else []
    rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]],
                    dtype=float).reshape(-1, len(header))
    return comments, header, rows


def check(cfg: dict, path: Path) -> list[str]:
    """Problems found in one output file; empty when it is correct."""
    if not path.is_file():
        return ["output file missing"]
    try:
        comments, header, rows = read_csv(path)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    problems = []
    if comments[1:2] != [f"# config sha256: {config_hash(cfg)}"]:
        problems.append("config hash comment does not match the scenario")
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite value")
    if cfg["mode"] == "discord_map":
        problems += _check_map(cfg, header, rows)
    else:
        problems += _check_evolve(cfg, header, rows)
    return problems


def _check_map(cfg: dict, header: list[str], rows: np.ndarray) -> list[str]:
    if header != MAP_COLUMNS:
        return [f"columns {header}"]
    n_p, n_k = cfg["map_points"]
    if rows.shape[0] != n_p * n_k:
        return [f"{rows.shape[0]} rows for a {n_p}x{n_k} map"]
    problems = []
    p_grid = np.repeat(np.linspace(*cfg["p_range"], n_p), n_k)
    k_grid = np.tile(np.linspace(*cfg["log10_kGamma_range"], n_k), n_p)
    if not (np.array_equal(rows[:, 0], p_grid) and np.array_equal(rows[:, 1], k_grid)):
        problems.append("cells are not the requested (p, log10 kGamma) grid")
    if np.any(rows[:, 2] < 0.0):
        problems.append("negative discord")
    if np.any(rows[:, 3] <= 0.0) or np.any(rows[:, 3] > 1.0):
        problems.append("purity outside (0, 1]")
    return problems


def _check_evolve(cfg: dict, header: list[str], rows: np.ndarray) -> list[str]:
    if header != EVOLVE_COLUMNS:
        return [f"columns {header}"]
    g = cfg["grid"]
    if rows.shape[0] != g["points"]:
        return [f"{rows.shape[0]} rows for {g['points']} grid points"]
    col = {name: rows[:, i] for i, name in enumerate(header)}
    problems = []
    if not np.allclose(col["x"], np.geomspace(g["x_start"], g["x_end"], g["points"]),
                       rtol=1e-12, atol=0.0):
        problems.append("x is not the requested grid")
    if np.any(col["purity"] <= 0.0) or np.any(col["purity"] > 1.0):
        problems.append("purity outside (0, 1]")
    if np.any(col["lam"] < 1.0) or not np.allclose(col["purity"] * col["lam"], 1.0,
                                                   rtol=1e-12, atol=0.0):
        problems.append("lam is not max(det, 1) = 1/purity")
    if not np.allclose(col["sigma0"], np.sqrt(col["lam"]), rtol=1e-12, atol=0.0):
        problems.append("sigma0 is not sqrt(lam)")
    if np.any(col["g11"] <= 0.0) or np.any(col["g22"] <= 0.0):
        problems.append("non-positive diagonal covariance entry")
    if np.any(col["r"] < 0.0) or np.any(col["abs_c"] < 0.0) or np.any(col["n_pairs"] < -1e-9):
        problems.append("negative squeezing amplitude or occupation")
    return problems


def sample(rows: np.ndarray) -> list[list[float]]:
    """At most REFERENCE_ROWS evenly spaced rows, always with the last one."""
    n = rows.shape[0]
    idx = sorted(set(np.linspace(0, n - 1, min(n, REFERENCE_ROWS)).round().astype(int)))
    return rows[idx].tolist()


def compare(workload: str, path: Path, expected: list[list[float]]) -> list[str]:
    """Problems of one output against its stored reference rows."""
    atol, rtol = REFERENCE_TOL[workload]
    _, header, rows = read_csv(path)
    got = np.array(sample(rows))
    want = np.array(expected)
    if got.shape != want.shape:
        return [f"reference shape {want.shape}, got {got.shape}"]
    floor = np.array([0.0 if name in RELATIVE_COLUMNS else atol for name in header])
    bad = np.abs(got - want) > floor + rtol * np.abs(want)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return [f"differs from reference at sampled row {i}, column {j}: "
                f"{float(got[i, j])!r} vs {float(want[i, j])!r} ({int(bad.sum())} values)"]
    return []


def load_reference(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
