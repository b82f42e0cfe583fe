"""Cost per trajectory of the transport response against scalar runs.

    pytest tests/bench_transport_batch.py --benchmark-only

The file name keeps it out of the default test collection.  One row of N
couplings kGamma/k* in 1e-6..1 at p = 5.3, x = 1e-3, ellH = 0.1 is
integrated either as one `evolve_de_sitter` response to the row's unit
source, its cells formed from the kap2 polynomials ("batch"), or as N
scalar calls ("scalar").  Each benchmark's extra_info holds the best time
per trajectory and the transport_rhs_open calls per trajectory (one per
RHS call, of a response as of a scalar run); add --benchmark-json=FILE
to keep them.

`test_transport_plane` runs a 4x4 transport `discord_cosmo` plane, p in
{0.5, 2.0001, 5.3, 9.5} and the couplings above, either as one call with
a p row ("plane", one integration) or as four row calls ("rows"), and
records the best time per cell and the transport_rhs_open calls.

`test_response_rhs_call` times one call of the response RHS itself, the
function the compiled integrator calls back, for a de Sitter row of n unit
sources (p in 0.1..9.9, x = 1e-3, ellH = 0.1) at its end state, and
records the RHS calls that row's integration took.
"""

import numpy as np
import pytest

from gausslind import opensys
from gausslind.cosmology import CosmoParams, cosmo_kernel, discord_cosmo, evolve_de_sitter

P, X, ELLH = 5.3, 1e-3, 0.1


def _couplings(n: int) -> np.ndarray:
    return np.logspace(-6.0, 0.0, n)


def batch(n: int):
    expo = np.array([P - 3.0])
    response = evolve_de_sitter(1.0 / ELLH, X, lambda eta: 2.0 * (1.0 / -eta) ** expo)
    return response.cells(_couplings(n) ** 2)


def scalar(n: int):
    return [evolve_de_sitter(1.0 / ELLH, X, cosmo_kernel(CosmoParams(kg, P, ELLH)))
            for kg in _couplings(n).tolist()]


@pytest.mark.parametrize("mode", ["batch", "scalar"])
@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_transport_row(benchmark, monkeypatch, mode, n):
    run = batch if mode == "batch" else scalar
    calls = []
    rhs = opensys.transport_rhs_open
    monkeypatch.setattr(opensys, "transport_rhs_open",
                        lambda *a: calls.append(1) or rhs(*a))
    run(n)
    monkeypatch.undo()
    rounds = 3 if mode == "scalar" and n >= 16 else 7
    benchmark.pedantic(run, args=(n,), rounds=rounds, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update(
        mode=mode, n=n, rhs_calls_per_trajectory=len(calls) / n,
        per_trajectory_ms=1e3 * benchmark.stats.stats.min / n)


PLANE_P = np.array([0.5, 2.0001, 5.3, 9.5])


def plane():
    return discord_cosmo(X, -0.785, CosmoParams(0.0, P, ELLH), "transport",
                         kGamma_over_kstar=_couplings(4), p=PLANE_P)


def rows():
    return [discord_cosmo(X, -0.785, CosmoParams(0.0, p, ELLH), "transport",
                          kGamma_over_kstar=_couplings(4)) for p in PLANE_P.tolist()]


@pytest.mark.parametrize("mode", ["plane", "rows"])
def test_transport_plane(benchmark, monkeypatch, mode):
    """A 4x4 (p, coupling) plane as one integration against 4 row calls."""
    run = plane if mode == "plane" else rows
    calls = []
    rhs = opensys.transport_rhs_open
    monkeypatch.setattr(opensys, "transport_rhs_open",
                        lambda *a: calls.append(1) or rhs(*a))
    run()
    monkeypatch.undo()
    benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=1)
    cells = PLANE_P.size * 4
    benchmark.extra_info.update(
        mode=mode, cells=cells, rhs_calls=len(calls),
        per_cell_ms=1e3 * benchmark.stats.stats.min / cells)


@pytest.mark.parametrize("n", [1, 3, 40])
def test_response_rhs_call(benchmark, monkeypatch, n):
    """One response RHS call at n unit sources, and the RHS calls of one
    integration."""
    captured, sources = [], []
    ode = opensys.ode
    monkeypatch.setattr(opensys, "ode", lambda f: captured.append(f) or ode(f))
    expo = np.linspace(0.1, 9.9, n) - 3.0

    def source(eta):
        sources.append(eta)
        return 2.0 * (1.0 / -eta) ** expo

    response = evolve_de_sitter(1.0 / ELLH, X, source)
    monkeypatch.undo()
    (rhs,) = captured
    y = np.concatenate((np.hstack((response.g, response.F[:, :, 0])).ravel(),
                        response.a1[:, 0], response.a2[:, 0]))
    benchmark.pedantic(rhs, args=(-X, y), rounds=2000, iterations=10, warmup_rounds=100)
    benchmark.extra_info.update(
        n=n, rhs_calls_per_integration=len(sources) - 1,  # less the shape probe
        per_call_us=1e6 * benchmark.stats.stats.median)
