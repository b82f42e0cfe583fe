"""In-memory span tracer patched onto gausslind's module-level bindings.

`Tracer.install()` replaces each traced function by a wrapper in every
gausslind module that binds it (for example `discord_cosmo` in both
`cosmology` and `cli`, `piecewise_oscillatory_quad` in both `opensys` and
`cosmology`), so that no call path escapes the trace.  A span records its
name, start, end, parent span and scenario; spans are kept in compact
arrays and written out once, after the run.  Functions that are called
too often for a span, or whose time belongs to their caller, only count.

The program itself is not modified: `uninstall()` restores every binding.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name).  An attribute "Class.method" patches the
# method on the class.
SPANS = (
    ("gausslind.cli", "main", "cli.main"),
    ("gausslind.cosmology", "discord_cosmo", "cosmology.discord_cosmo"),
    ("gausslind.cosmology", "asymptotic_coefficients", "cosmology.asymptotic_coefficients"),
    ("gausslind.cosmology", "logsumexp", "cosmology.logsumexp"),
    ("gausslind.cosmology", "exact_open_covariance", "cosmology.exact_open_covariance"),
    ("gausslind.cosmology", "exact_open_det", "cosmology.exact_open_det"),
    ("gausslind.discord", "_discord_from_logs", "discord.assembly"),
    ("gausslind.specfun", "upper_incomplete_gamma", "specfun.gamma"),
    ("gausslind.specfun", "oscillatory_moment", "specfun.oscillatory_moment"),
    ("gausslind.specfun", "oscillatory_moment_limits", "specfun.oscillatory_moment_limits"),
    ("gausslind.opensys", "piecewise_oscillatory_quad", "opensys.piecewise_quad"),
    ("gausslind.opensys", "quad", "opensys.quad"),
    ("gausslind.opensys", "evolve_open", "opensys.evolve_open"),
    ("gausslind.opensys", "transport_rhs_open", "opensys.transport_rhs_open"),
    ("gausslind.opensys", "det_rhs", "opensys.det_rhs"),
    ("gausslind.closed", "transport_rhs_closed", "closed.transport_rhs_closed"),
    ("gausslind.closed", "CovarianceTrajectory.squeezing", "closed.squeezing"),
    ("gausslind.symplectic", "squeezing_from_covariance", "symplectic.squeezing_from_covariance"),
    ("gausslind.symplectic", "particle_statistics", "symplectic.particle_statistics"),
)

# (module, attribute, counter name): counted, no span
COUNTS = (
    ("gausslind.specfun", "_series", "specfun.gamma.series"),
    ("gausslind.specfun", "_lentz_cf", "specfun.gamma.cf"),
    ("gausslind.symplectic", "CovarianceBlock.__post_init__", "symplectic.blocks_built"),
)


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_scenario = array("q")
        self._stack = [-1]
        self.scenario = -1
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, scenarios = self.span_parent, self.span_scenario

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            scenarios.append(self.scenario)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _quad_wrapper(self, name: str, fn):
        """Span around scipy's quad that also counts IntegrationWarning and
        passes each warning on unchanged."""
        span = self._span_wrapper(name, fn)
        self.counts["opensys.quad.warnings"] = 0

        def traced(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = span(*args, **kwargs)
            for w in caught:
                if w.category.__name__ == "IntegrationWarning":
                    self.counts["opensys.quad.warnings"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _rows_wrapper(self, fn):
        counts = self.counts
        counts["cli.rows_written"] = 0

        def counted(path, header, rows, config_hash):
            rows = list(rows)
            counts["cli.rows_written"] += len(rows)
            return fn(path, header, rows, config_hash)

        return counted

    def install(self) -> None:
        targets = []
        for module, attr, name in SPANS:
            owner, key = _resolve(module, attr)
            fn = getattr(owner, key)
            make = self._quad_wrapper if name == "opensys.quad" else self._span_wrapper
            targets.append((owner, key, fn, make(name, fn)))
        for module, attr, name in COUNTS:
            owner, key = _resolve(module, attr)
            fn = getattr(owner, key)
            targets.append((owner, key, fn, self._count_wrapper(name, fn)))
        owner, key = _resolve("gausslind.cli", "_write_csv")
        fn = getattr(owner, key)
        targets.append((owner, key, fn, self._rows_wrapper(fn)))

        # every binding of the same object in any gausslind module
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gausslind" or n.startswith("gausslind.")]
        for owner, key, fn, wrapper in targets:
            homes = [(owner, key)] + [
                (mod, attr) for mod in modules for attr, value in vars(mod).items()
                if value is fn and (mod, attr) != (owner, key)]
            for home, attr in homes:
                setattr(home, attr, wrapper)
                self._patched.append((home, attr, fn))

    def uninstall(self) -> None:
        for home, attr, fn in reversed(self._patched):
            setattr(home, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.span_name, dtype=np.int64),
            "start": np.array(self.span_start, dtype=np.int64),
            "end": np.array(self.span_end, dtype=np.int64),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "scenario": np.array(self.span_scenario, dtype=np.int64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct child spans)."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(float) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}
        return out

    def write(self, path: Path) -> None:
        """Spans as .npz arrays plus the name table and counters."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            counts=np.array(json.dumps(self.counts)), **self.arrays())
