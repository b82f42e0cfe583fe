"""Cost of the approx plane: the coefficient tables and `_log_sigmas_series`.

    pytest tests/bench_approx_plane.py --benchmark-only

The file name keeps it out of the default test collection.  Two planes of
the default `discord_map` ranges (x = e^-20, theta = -pi/4, ellH = 1e-3,
p in 0.1..9.9 with poles offset, log10 kGamma/k* in -10..6): the default
40x40 and the 1000x1000 map.  Each is evaluated as `discord_cosmo` does
for method "approx": `_approx_block` (one `asymptotic_coefficients` table
over the block's p row, its sigma(0)^2 and entry terms at the kap2 of the
couplings handed to `_log_sigmas_series`) on each block of
`_plane_blocks`, at most PLANE_BLOCK_CELLS cells (one block for 40x40, 16
for 1000x1000).  The discord assembly is
not timed (see bench_discord_assembly.py).  Each benchmark's extra_info
holds the best time per plane in ms; add --benchmark-json=FILE to keep
them.
"""

import numpy as np
import pytest

from gausslind.cosmology import (PLANE_BLOCK_CELLS, _approx_block, _plane_blocks,
                                 offset_singular_p)

from conftest import default_map

X, THETA, PARAMS, _, _ = default_map()


def _plane(n: int) -> tuple:
    """(p row, coupling row) of the n x n map over the default ranges."""
    ps = np.array([offset_singular_p(p) for p in np.linspace(0.1, 9.9, n).tolist()])
    return ps, 10.0 ** np.linspace(-10.0, 6.0, n)


def approx_plane(ps: np.ndarray, couplings: np.ndarray) -> list:
    """(ln sigma(0)^2, ln q) of each block."""
    return [_approx_block(X, THETA, PARAMS, ps[rows], couplings[cols])
            for rows, cols in _plane_blocks(len(ps), len(couplings), PLANE_BLOCK_CELLS)]


@pytest.mark.parametrize("n, rounds", [(40, 50), (1000, 3)])
def test_approx_plane(benchmark, n, rounds):
    benchmark.pedantic(approx_plane, args=_plane(n), rounds=rounds, iterations=1,
                       warmup_rounds=1)
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info.update(plane=f"{n}x{n}",
                                    per_plane_ms=1e3 * benchmark.stats.stats.min)
