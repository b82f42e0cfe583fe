"""Seeded `gausslind run` scenarios for the four benchmark workloads.

Each workload is a fixed list of five size slots.  One *round* draws one
scenario per slot; a run repeats rounds with fresh draws.  The slot sizes
are fixed and only continuous parameters come from the seed, so every
seed asks for the same amount of work per round.  With an odd number of
slots whose times differ, the median and the 90th percentile of scenario
time fall inside one slot's cluster of times, not on the gap between two.

An *item* is one map cell for the `discord_map` workloads and one output
row for `evolve_open`.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("map_approx", "map_exact", "map_transport", "evolve_open")

# Slots: (n_p, n_k) map shape, or output rows for evolve_open, each with
# its own narrow x and ellH ranges.  ellH sets where the environment
# switches on (x = 1/ellH) and so most of the cost of the exact and
# transport routes; a narrow range per slot keeps the work of a round the
# same for every seed while the slots together span the workload's ranges.
_SLOTS = {
    # the default user path: super-Hubble asymptotics, x < 0.1 down to
    # e^-40; includes the default 40x40 plane and shapes where many cells
    # share one p (4x40) or few do (40x8).  Cost per cell does not depend
    # on x, but the continued-fraction gamma at z = -2i/ellH takes more
    # iterations as ellH grows; ellH < 0.44 keeps |z| beyond the series
    # branch.
    "map_approx": (
        ((6, 10), (math.exp(-40.0), math.exp(-2.5)), (0.1, 0.3)),
        ((4, 40), (math.exp(-40.0), math.exp(-2.5)), (0.03, 0.1)),
        ((40, 8), (math.exp(-40.0), math.exp(-2.5)), (0.01, 0.03)),
        ((20, 32), (math.exp(-40.0), math.exp(-2.5)), (3e-3, 0.01)),
        ((40, 40), (math.exp(-40.0), math.exp(-2.5)), (1e-3, 3e-3)),
    ),
    # closed form + quadrature determinant; the slots at x <= 0.05 with
    # p_hi near 9.3 reach the region where scipy's quad reports round-off
    "map_exact": (
        ((1, 3), (0.3, 0.5), (0.2, 0.3)),
        ((2, 3), (0.02, 0.05), (0.05, 0.06)),
        ((2, 5), (0.1, 0.3), (0.14, 0.18)),
        ((3, 5), (0.05, 0.1), (0.1, 0.12)),
        ((5, 5), (0.03, 0.05), (0.08, 0.1)),
    ),
    "map_transport": (
        ((1, 2), (1e-3, 2e-3), (0.05, 0.07)),
        ((2, 2), (5e-3, 1e-2), (0.2, 0.3)),
        ((2, 3), (2e-3, 4e-3), (0.1, 0.13)),
        ((3, 3), (3e-3, 6e-3), (0.15, 0.2)),
        ((3, 4), (1e-3, 3e-3), (0.07, 0.1)),
    ),
    # x_end is the x range here; the trajectory starts at min(10, 1/ellH)
    "evolve_open": (
        (200, (1e-4, 2e-4), (0.1, 0.12)),
        (400, (5e-4, 1e-3), (0.25, 0.3)),
        (1000, (2e-4, 4e-4), (0.12, 0.16)),
        (2000, (1e-4, 3e-4), (0.2, 0.25)),
        (4000, (3e-4, 6e-4), (0.16, 0.2)),
    ),
}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _discord_map(rng: random.Random, method: str, shape, x: float, ellH: float,
                 p_hi: tuple, log10_k: tuple) -> dict:
    return {
        "mode": "discord_map", "method": method,
        "map_points": list(shape),
        "x": x,
        "theta": rng.uniform(-1.5, -0.05),
        "cosmo": {"ellH": ellH},
        "p_range": [rng.uniform(0.1, 1.0), rng.uniform(*p_hi)],
        "log10_kGamma_range": [rng.uniform(*log10_k[0]), rng.uniform(*log10_k[1])],
    }


def _draw(workload: str, rng: random.Random, slot) -> dict:
    size, x_range, ellH_range = slot
    x = _log_uniform(rng, *x_range)
    ellH = _log_uniform(rng, *ellH_range)
    if workload == "map_approx":
        return _discord_map(rng, "approx", size, x, ellH, (9.0, 9.9),
                            ((-10.0, -6.0), (2.0, 6.0)))
    if workload == "map_exact":
        return _discord_map(rng, "exact", size, x, ellH, (9.2, 9.9),
                            ((-6.0, -3.0), (0.0, 1.5)))
    if workload == "map_transport":
        # kGamma/k* <= 1 keeps clear of the StepFailureError region (p <~ 2
        # with kGamma/k* >~ 30), which KNOWN_DEFECT_PLANE runs instead
        return _discord_map(rng, "transport", size, x, ellH, (9.0, 9.7),
                            ((-6.0, -3.0), (-1.0, 0.0)))
    # README-style trajectory; kGamma/k* <= 10 integrates to x = 1e-4
    return {
        "mode": "evolve_open",
        "cosmo": {"kGamma_over_kstar": _log_uniform(rng, 0.3, 10.0),
                  "p": rng.uniform(1.5, 9.5), "ellH": ellH},
        "grid": {"x_start": min(10.0, 1.0 / ellH), "x_end": x, "points": size},
    }


def items(cfg: dict) -> int:
    """Cells of a map, or rows of a trajectory."""
    if cfg["mode"] == "evolve_open":
        return int(cfg["grid"]["points"])
    n_p, n_k = cfg["map_points"]
    return int(n_p) * int(n_k)


def rounds(workload: str, seed: int):
    """Endless rounds of scenarios; round r is the same list for a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        batch = []
        for slot in _SLOTS[workload]:
            cfg = _draw(workload, rng, slot)
            cfg["output_path"] = f"s{index:05d}.csv"
            batch.append(cfg)
            index += 1
        yield batch


def first_round(workload: str, seed: int) -> list:
    return next(rounds(workload, seed))


# The known StepFailureError region of method "transport": an 8x8 plane at
# x = 1e-3, ellH = 0.1 reaching kGamma/k* = 100.  Run once as one map
# (the first failing cell aborts the map with exit 3) and once cell by cell.
KNOWN_DEFECT_PLANE = {
    "mode": "discord_map", "method": "transport",
    "map_points": [8, 8], "x": 1e-3, "theta": -math.pi / 4.0,
    "cosmo": {"ellH": 0.1},
    "p_range": [0.1, 9.9], "log10_kGamma_range": [-2.0, 2.0],
    "output_path": "known_defect_plane.csv",
}


def known_defect_cells() -> list:
    """The plane's cells as 1x1 maps, so that a failure loses one cell."""
    plane = KNOWN_DEFECT_PLANE
    (p_lo, p_hi), (k_lo, k_hi) = plane["p_range"], plane["log10_kGamma_range"]
    n_p, n_k = plane["map_points"]
    cells = []
    for i in range(n_p):
        p = p_lo + (p_hi - p_lo) * i / (n_p - 1)
        for j in range(n_k):
            k = k_lo + (k_hi - k_lo) * j / (n_k - 1)
            cell = dict(plane, map_points=[1, 1], p_range=[p, p],
                        log10_kGamma_range=[k, k],
                        output_path=f"known_defect_{i}_{j}.csv")
            cells.append(cell)
    return cells
