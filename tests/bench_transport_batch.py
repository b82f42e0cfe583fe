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
records the best time per cell and the intervals and the time of each
collocated phase: in conformal time down to x = 1, and in e-folds below
it.

`test_phase_step` times one interval of each phase for a transport plane
of n p rows (p in 0.1..9.9, x = 1e-3, ellH = 0.1), at the phase's last
interval: `cosmology._subhubble_interval` ("subhubble") or
`cosmology._efold_interval` ("efold"); and records the intervals the
phase took.
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


# phase: (the phase's entry, its interval), each a name in cosmology
PHASES = {"subhubble": ("_subhubble_response", "_subhubble_interval"),
          "efold": ("_efold_response", "_efold_interval")}


def _record_phases(monkeypatch) -> dict:
    """Patch the entry and the interval of both phases: each gets one
    [seconds, intervals, last interval's arguments] per run."""
    runs = {phase: [] for phase in PHASES}
    for phase, names in PHASES.items():
        entry, interval = (getattr(cosmology, name) for name in names)

        def timed(*args, _runs=runs[phase], _entry=entry):
            run = [0.0, 0, None]
            _runs.append(run)
            start = time.perf_counter()
            out = _entry(*args)
            run[0] = time.perf_counter() - start
            return out

        def counted(*args, _runs=runs[phase], _interval=interval, **kwargs):
            run = _runs[-1]
            run[1] += 1
            run[2] = (args, kwargs)
            return _interval(*args, **kwargs)

        monkeypatch.setattr(cosmology, names[0], timed)
        monkeypatch.setattr(cosmology, names[1], counted)
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
            mode=mode, cells=cells, per_cell_ms=1e3 * benchmark.stats.stats.min / cells)
        for phase, phase_runs in runs.items():
            benchmark.extra_info[f"{phase}_intervals"] = sum(r[1] for r in phase_runs)
            benchmark.extra_info[f"{phase}_ms"] = 1e3 * sum(r[0] for r in phase_runs)


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("n", [1, 3, 40])
def test_phase_step(benchmark, monkeypatch, phase, n):
    """One interval of a phase at n p rows, and the intervals it took."""
    runs = _record_phases(monkeypatch)
    ps = np.linspace(0.1, 9.9, n)
    discord_cosmo(X, -0.785, CosmoParams(0.0, ps[0], ELLH), "transport",
                  kGamma_over_kstar=_couplings(4), p=ps)
    monkeypatch.undo()
    _, steps, (args, kwargs) = runs[phase][0]
    benchmark.pedantic(getattr(cosmology, PHASES[phase][1]), args=args, kwargs=kwargs,
                       rounds=2000, iterations=10, warmup_rounds=100)
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info.update(phase=phase, n=n, steps=steps,
                                    per_step_us=1e6 * benchmark.stats.stats.median)
