"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, for seed SELFTEST_SEED:
- two traced runs of each workload give identical per-layer counts;
- traced runs are correct, which includes byte-identical traced and
  untraced CSVs (run.py compares them);
- each layer's counters are non-zero on the workload that exercises it
  and zero on a workload that bypasses it;
- the printed metric names are exactly those of BENCHMARK.json;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spread import BENCH, ROOT, run_once
from workloads import WORKLOADS

SELFTEST_SEED = 3

# counter -> workloads where it must be non-zero; zero everywhere else
EXERCISED_BY = {
    "specfun.gamma.calls.cf": {"map_approx", "map_exact"},
    "specfun.gamma.calls.series": {"map_exact"},
    "specfun.oscillatory_moment.calls": {"map_exact"},
    "specfun.oscillatory_moment_limits.calls": {"map_approx"},
    "cosmology.asymptotic_coefficients.calls": {"map_approx"},
    "cosmology.logsumexp.calls": {"map_approx"},
    "cosmology.exact_open_covariance.calls": {"map_exact"},
    "opensys.quad.subintervals": {"map_exact"},
    "opensys.rhs_calls": {"map_transport", "evolve_open"},
    "opensys.evolve_open.calls": {"map_transport", "evolve_open"},
    "closed.squeezing.calls": {"evolve_open"},
    "cosmology.discord_cosmo.calls": {"map_approx", "map_exact", "map_transport"},
    "known_defect.cells_failed": {"map_transport"},
}


def run_bare(bare: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map_approx", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=600)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []

    for w in WORKLOADS:
        first, second = run_once(w, SELFTEST_SEED, 1, 1), run_once(w, SELFTEST_SEED, 1, 1)
        for r in (first, second):
            if not r["correct"] or r["failed"]:
                errors.append(f"{w}: traced run not correct or with failures")
        m1, m2 = first["metrics"], second["metrics"]
        if sorted(m1) != sorted(m["name"] for m in bench["per_layer"]):
            errors.append(f"{w}: per-layer metric names differ from BENCHMARK.json")
        for name, m in m1.items():
            if m["unit"].startswith("count") and m["value"] != m2[name]["value"]:
                errors.append(f"{w}: {name} {m['value']} then {m2[name]['value']}")
        for name, busy in EXERCISED_BY.items():
            v = m1[name]["value"]
            if (w in busy) != (v > 0):
                errors.append(f"{w}: {name} = {v}, expected {'> 0' if w in busy else '0'}")
        if m1["cli.rows_written.per_item"]["value"] != 1.0:
            errors.append(f"{w}: rows written per item is not 1")
        print(f"{w}: traced counts checked")

        r = run_once(w, SELFTEST_SEED, 2, 0)
        if sorted(r["metrics"]) != sorted(m["name"] for m in bench["end_to_end"]):
            errors.append(f"{w}: end-to-end metric names differ from BENCHMARK.json")
        if not r["correct"] or r["failed"]:
            errors.append(f"{w}: timed run not correct or with failures")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bare(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("benchmark without program sources did not fail")
    shutil.rmtree(bare)

    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
