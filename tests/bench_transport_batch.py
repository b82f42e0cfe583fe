"""Cost per trajectory of the transport response against scalar runs.

    pytest tests/bench_transport_batch.py --benchmark-only

The file name keeps it out of the default test collection.  One row of N
couplings kGamma/k* in 1e-6..1 at p = 5.3, x = 1e-3, ellH = 0.1 is
integrated either as one `evolve_de_sitter` response to the row's unit
source, its cells formed from the kap2 polynomials ("batch"), or as N
scalar calls ("scalar").  Each benchmark's extra_info holds the best time
per trajectory and the RHS calls per trajectory (the calls of the
callbacks handed to the integrators); add --benchmark-json=FILE to keep
them.

`test_transport_plane` runs a 4x4 transport `discord_cosmo` plane, p in
{0.5, 2.0001, 5.3, 9.5} and the couplings above, either as one call with
a p row ("plane", one response) or as four row calls ("rows"), and
records the best time per cell, the intervals and the time of the
sub-Hubble collocation down to x = 1 and the RHS calls of the e-fold
integration below it.

`test_phase_step` times one step of each phase for a transport plane of
n p rows (p in 0.1..9.9, x = 1e-3, ellH = 0.1): one interval of the
sub-Hubble collocation ("subhubble", `cosmology._collocate`) at its last
interval, or one call of the e-fold RHS, the function the compiled
integrator calls back, at its end state ("efold"); and records the
intervals or the RHS calls the phase took.
"""

import time

import numpy as np
import pytest

from gausslind import cosmology, opensys
from gausslind.cosmology import CosmoParams, cosmo_kernel, discord_cosmo, evolve_de_sitter

from conftest import count_rhs_calls

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
    calls = count_rhs_calls(monkeypatch, (opensys, "_dop853"), (opensys, "solve_ivp"))
    run(n)
    monkeypatch.undo()
    rounds = 3 if mode == "scalar" and n >= 16 else 7
    benchmark.pedantic(run, args=(n,), rounds=rounds, iterations=1, warmup_rounds=1)
    if benchmark.stats:  # None under --benchmark-disable
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


PHASES = ("subhubble", "efold")


def _record_phases(monkeypatch) -> dict:
    """Patch the entry of both phases.  "subhubble" gets one [seconds,
    intervals, last interval's arguments] per collocation, "efold" one
    [rhs, calls, t_end, y_end] per e-fold integration."""
    runs = {phase: [] for phase in PHASES}
    subhubble, collocate, dop853 = (cosmology._subhubble_response, cosmology._collocate,
                                    cosmology._dop853)

    def timed_subhubble(*args):
        run = [0.0, 0, None]
        runs["subhubble"].append(run)
        start = time.perf_counter()
        response = subhubble(*args)
        run[0] = time.perf_counter() - start
        return response

    def counted_collocate(*args):
        run = runs["subhubble"][-1]
        run[1] += 1
        run[2] = args
        return collocate(*args)

    def recording(rhs, y0, t0, times, *args, **kwargs):
        run = [rhs, 0, float(times[-1]), None]

        def counted(t, y):
            run[1] += 1
            return rhs(t, y)

        runs["efold"].append(run)
        ys = dop853(counted, y0, t0, times, *args, **kwargs)
        run[3] = ys[-1].copy()
        return ys

    monkeypatch.setattr(cosmology, "_subhubble_response", timed_subhubble)
    monkeypatch.setattr(cosmology, "_collocate", counted_collocate)
    monkeypatch.setattr(cosmology, "_dop853", recording)
    return runs


@pytest.mark.parametrize("mode", ["plane", "rows"])
def test_transport_plane(benchmark, monkeypatch, mode):
    """A 4x4 (p, coupling) plane as one response against 4 row calls."""
    run = plane if mode == "plane" else rows
    runs = _record_phases(monkeypatch)
    run()
    monkeypatch.undo()
    benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=1)
    if benchmark.stats:  # None under --benchmark-disable
        cells = PLANE_P.size * 4
        benchmark.extra_info.update(
            mode=mode, cells=cells, per_cell_ms=1e3 * benchmark.stats.stats.min / cells,
            subhubble_intervals=sum(r[1] for r in runs["subhubble"]),
            subhubble_ms=1e3 * sum(r[0] for r in runs["subhubble"]),
            rhs_calls_efold=sum(r[1] for r in runs["efold"]))


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("n", [1, 3, 40])
def test_phase_step(benchmark, monkeypatch, phase, n):
    """One step of a phase at n p rows, and the work that phase took."""
    runs = _record_phases(monkeypatch)
    ps = np.linspace(0.1, 9.9, n)
    discord_cosmo(X, -0.785, CosmoParams(0.0, ps[0], ELLH), "transport",
                  kGamma_over_kstar=_couplings(4), p=ps)
    monkeypatch.undo()
    if phase == "subhubble":
        _, steps, args = runs[phase][0]
        step = cosmology._collocate
    else:
        step, steps, *args = runs[phase][0]
    benchmark.pedantic(step, args=tuple(args), rounds=2000, iterations=10, warmup_rounds=100)
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info.update(phase=phase, n=n, steps=steps,
                                    per_step_us=1e6 * benchmark.stats.stats.median)
