"""Time the three scenarios of the ROADMAP baseline table in-process.

    python3 perfbench/crosscheck.py

The ROADMAP "Open items" table gives: default 40x40 approx map 1.06-1.34 s
(1 thread), README `evolve_open` example 44 ms, 5x5 exact map at x = 0.05
0.70 s.  This runs the same configurations through `gausslind.cli.main`
after one warm-up call and prints the median of REPEATS wall times,
unscaled and scaled to the benchmark's reference host speed (see run.py).
"""

from __future__ import annotations

import json
import math
import statistics

import run

REPEATS = 7

# the CLI defaults, spelled out so that the outputs can be checked
_MAP = {"mode": "discord_map", "p_range": [0.1, 9.9], "log10_kGamma_range": [-10.0, 6.0],
        "theta": -math.pi / 4.0}
SCENARIOS = {
    "discord_map 40x40 approx (default)": dict(
        _MAP, map_points=[40, 40], x=math.exp(-20.0), cosmo={"ellH": 1e-3}),
    "README evolve_open (200 points)": {
        "mode": "evolve_open",
        "cosmo": {"kGamma_over_kstar": 10.0, "p": 2.1, "ellH": 0.1},
        "grid": {"x_start": 10.0, "x_end": 0.001, "points": 200},
    },
    "discord_map 5x5 exact, x = 0.05": dict(
        _MAP, method="exact", map_points=[5, 5], x=0.05, cosmo={"ellH": 0.1}),
}


def main() -> int:
    cli = run.import_program()
    out_dir = run.fresh_dir(run.WORK / "crosscheck")
    host = run.HostSpeed()
    results = {}
    for name, cfg in SCENARIOS.items():
        cfg = dict(cfg, output_path="crosscheck.csv")
        run.run_scenario(cli, cfg, out_dir)
        runs = [run.run_scenario(cli, cfg, out_dir, host) for _ in range(REPEATS)]
        if any(o.failed for o in runs):
            raise SystemExit(f"{name}: failed")
        raw = statistics.median(o.seconds for o in runs)
        scaled = statistics.median(host.scale(o.seconds, o.probe) for o in runs)
        results[name] = {"raw_ms": raw * 1e3, "scaled_ms": scaled * 1e3}
        print(f"{name}: median {raw * 1e3:.1f} ms unscaled, {scaled * 1e3:.1f} ms scaled"
              f" ({REPEATS} runs)")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
