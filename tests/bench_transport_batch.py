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
a p row ("plane", one response) or as four row calls ("rows"), and
records the best time per cell and the RHS calls of each phase: conformal
time down to x = 1 ("conformal") and e-folds below it ("efold").

`test_phase_rhs_call` times one call of each phase's RHS itself, the
function the compiled integrator calls back, for a transport plane of n
p rows (p in 0.1..9.9, x = 1e-3, ellH = 0.1) at the end state of that
phase, and records the RHS calls the phase took.
"""

import numpy as np
import pytest

from gausslind import cosmology, opensys
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


PHASES = ("conformal", "efold")


def _record_phases(monkeypatch) -> list:
    """Patch the integrator entry of both phases; each integration appends
    [rhs, calls, t_end, y_end] to the returned list, in phase order."""
    runs = []
    dop853 = opensys._dop853

    def recording(rhs, y0, t0, times, *args, **kwargs):
        run = [rhs, 0, float(times[-1]), None]

        def counted(t, y):
            run[1] += 1
            return rhs(t, y)

        runs.append(run)
        ys = dop853(counted, y0, t0, times, *args, **kwargs)
        run[3] = ys[-1].copy()
        return ys

    monkeypatch.setattr(opensys, "_dop853", recording)
    monkeypatch.setattr(cosmology, "_dop853", recording)
    return runs


@pytest.mark.parametrize("mode", ["plane", "rows"])
def test_transport_plane(benchmark, monkeypatch, mode):
    """A 4x4 (p, coupling) plane as one integration against 4 row calls."""
    run = plane if mode == "plane" else rows
    runs = _record_phases(monkeypatch)
    run()
    monkeypatch.undo()
    benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=1)
    cells = PLANE_P.size * 4
    benchmark.extra_info.update(
        mode=mode, cells=cells, per_cell_ms=1e3 * benchmark.stats.stats.min / cells,
        **{f"rhs_calls_{phase}": sum(r[1] for r in runs[i::2])
           for i, phase in enumerate(PHASES)})


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("n", [1, 3, 40])
def test_phase_rhs_call(benchmark, monkeypatch, phase, n):
    """One RHS call of a phase at n p rows, and the RHS calls of that phase."""
    runs = _record_phases(monkeypatch)
    ps = np.linspace(0.1, 9.9, n)
    discord_cosmo(X, -0.785, CosmoParams(0.0, ps[0], ELLH), "transport",
                  kGamma_over_kstar=_couplings(4), p=ps)
    monkeypatch.undo()
    rhs, calls, t, y = runs[PHASES.index(phase)]
    benchmark.pedantic(rhs, args=(t, y), rounds=2000, iterations=10, warmup_rounds=100)
    benchmark.extra_info.update(
        phase=phase, n=n, rhs_calls=calls, per_call_us=1e6 * benchmark.stats.stats.median)
