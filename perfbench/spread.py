"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads map_approx,evolve_open --seeds 0-9 \
        [--trace 0] [--save perfbench/baseline.json]

Each run measures for `run_seconds` of BENCHMARK.json.

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound from
BENCHMARK.json.  `--save FILE` adds every run's result line to FILE under
`trace_0` or `trace_1`, with the host, the toolchain and the git commit;
that is how baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    unscaled = [line.split(" ", 1)[1] for line in lines if line.startswith("unscaled ")]
    if unscaled:
        result["unscaled"] = json.loads(unscaled[0])
    return result


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def host_sensitivity(results: list[dict], name: str) -> float:
    """Slope of the log of a metric's unscaled time on log probe time over
    runs of one workload (for a rate, of its log on log probe speed, which
    is the same slope).  At 1 the host-speed scaling cancels contention
    exactly; below 1 the code slows less than the probe, and its scaled
    figures read faster on a slower host, by (probe time ratio)^(slope - 1)."""
    raw = [r["unscaled"][name] for r in results]
    ratio = [v / r["metrics"][name]["value"] for r, v in zip(results, raw)]
    return statistics.linear_regression([math.log(f) for f in ratio],
                                        [math.log(v) for v in raw]).slope


def host() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def commit() -> str:
    """The checkout's git commit, when it is a git repository."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    runs = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, seconds, args.trace) for seed in seeds]
        runs[workload] = [dict(seed=s, **r) for s, r in zip(seeds, results)]
        ok = all(r["correct"] and r["failed"] == 0 for r in results)
        print(f"{workload}: {len(results)} runs, all correct and no failures: {ok}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            med, share = spread(values)
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}  spread/bound {share / bound:.2f}"
            print(f"  {name:42s} median {med:.6g}  IQR/median {share:.4f}{note}")
            print("    " + " ".join(f"{v:.6g}" for v in values))
        if all("unscaled" in r for r in results) and len(results) > 1:
            for name in results[0]["unscaled"]:
                values = [r["unscaled"][name] for r in results]
                med, share = spread(values)
                print(f"  unscaled {name:33s} median {med:.6g}  IQR/median {share:.4f}")
            print(f"  host sensitivity over {len(results)} runs"
                  " (unscaled time ~ probe time^slope): "
                  f"items_per_s {host_sensitivity(results, 'items_per_s'):.3f}, "
                  f"setup_s {host_sensitivity(results, 'setup_s'):.3f}")
    if args.save:
        record = json.loads(args.save.read_text()) if args.save.is_file() else {}
        record.update(host=host(), commit=commit())
        record.setdefault(f"trace_{args.trace}", {}).update(
            {w: {"seconds": seconds, "runs": r} for w, r in runs.items()})
        args.save.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
