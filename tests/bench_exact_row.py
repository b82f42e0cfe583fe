"""Cost per coupling of an exact discord row against scalar calls.

    pytest tests/bench_exact_row.py --benchmark-only

The file name keeps it out of the default test collection.  One row of N
couplings kGamma/k* in 1e-3..20 at p = 9.3, x = 0.03, ellH = 0.09 (a
`map_exact` slot; the larger couplings emit IntegrationWarning) is
evaluated either as one `discord_cosmo(method="exact")` call with an array
of couplings ("row") or as N scalar calls ("scalar").  Each benchmark's
extra_info holds the best time per coupling and three work counts of one
cold run (every specfun cache cleared first): the Gamma evaluations per
coupling, the distinct quadrature nodes per coupling (calls of the node
helper `cosmology._g11_node`, which `exact_open_det` caches per node with
the source power; a row shares the nodes its couplings have in common)
and the CovarianceBlock constructions for the N cells.
Add --benchmark-json=FILE to keep them.
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from gausslind import cosmology, specfun
from gausslind.cosmology import CosmoParams, discord_cosmo
from gausslind.symplectic import CovarianceBlock

P, X, ELLH, THETA = 9.3, 0.03, 0.09, -0.4
PARAMS = CosmoParams(0.0, P, ELLH)


def _couplings(n: int) -> np.ndarray:
    return np.logspace(-3.0, np.log10(20.0), n)


def row(n: int):
    return discord_cosmo(X, THETA, PARAMS, "exact", kGamma_over_kstar=_couplings(n))


def scalar(n: int):
    return [discord_cosmo(X, THETA, PARAMS, "exact", kGamma_over_kstar=kg)
            for kg in _couplings(n).tolist()]


@pytest.mark.parametrize("mode", ["row", "scalar"])
@pytest.mark.parametrize("n", [1, 5, 10])
def test_exact_row(benchmark, monkeypatch, mode, n):
    warnings.simplefilter("ignore", IntegrationWarning)
    run = row if mode == "row" else scalar
    calls, nodes, blocks = [], [], []
    gamma, node = specfun.upper_incomplete_gamma, cosmology._g11_node
    post_init = CovarianceBlock.__post_init__
    monkeypatch.setattr(specfun, "upper_incomplete_gamma",
                        lambda a, z: calls.append(1) or gamma(a, z))
    monkeypatch.setattr(cosmology, "_g11_node",
                        lambda x, row: nodes.append(1) or node(x, row))
    monkeypatch.setattr(CovarianceBlock, "__post_init__",
                        lambda block: blocks.append(1) or post_init(block))
    for cache in (specfun._lower_limit_gamma, specfun._complete_gamma,
                  specfun._moment_prefactor):
        cache.cache_clear()
    run(n)
    monkeypatch.undo()
    benchmark.pedantic(run, args=(n,), rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update(
        mode=mode, n=n, gamma_calls_per_coupling=len(calls) / n,
        nodes_per_coupling=len(nodes) / n, blocks_per_row=len(blocks))
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info.update(per_coupling_ms=1e3 * benchmark.stats.stats.min / n)
