"""gausslind benchmark: seeded `gausslind run` scenarios executed in-process.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Every scenario goes through `gausslind.cli.main` with
`--threads 1`, and every output CSV is checked.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
of a traced run with `--trace 1`.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the map thread pool is GIL-bound, so the
# benchmark measures the single-threaded program
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))

from scipy.integrate import quad, solve_ivp  # noqa: E402
from scipy.special import logsumexp  # noqa: E402

import outputs  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5

# A fresh interpreter: import the program and get the first scenario ready.
SETUP_CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import gausslind.cli
import workloads
cfg = workloads.first_round(sys.argv[3], int(sys.argv[4]))[0]
with open(sys.argv[5], "w", encoding="utf-8") as fh:
    json.dump(cfg, fh)
"""


# The host's speed drifts by up to 2x over minutes (other tenants on
# shared cores; process CPU time drifts the same way).  A fixed probe that
# does not touch the program runs after every timed interval, and each
# interval is scaled to a host on which the probe takes HOST_PROBE_REF_S,
# using the mean probe time of the HOST_WINDOW probes before and after it.
# A change to the program moves the scaled times as it moves the raw ones;
# a change of host speed cancels out.
HOST_PROBE_REF_S = 6e-3
HOST_WINDOW = 5


def _probe_rhs(t, y):
    return [y[1], -y[0] * (1.0 + 0.1 * t), y[3], -y[2]]


def _probe_once() -> float:
    """A fixed mix of the library calls the workloads spend their time in,
    on fixed inputs and without any of the program's code: Python complex
    arithmetic, scipy logsumexp, quad and a DOP853 solve, float formatting."""
    t0 = time.perf_counter()
    h, z = 1.0 + 0.0j, 3.0 - 4.0j
    for i in range(1, 400):
        h = h * (z + i) / (z + i + 0.5) + 1.0 / (i + z)
    for i in range(60):
        logsumexp([1.0 + i, 2.0, -3.0], b=[1.0, -1.0, 1.0], return_sign=True)
    quad(math.cos, 0.0, 3.0 + 1e-3 * h.real)
    solve_ivp(_probe_rhs, (0.0, 2.0), [1.0, 0.0, 0.5, 0.1], method="DOP853",
              rtol=1e-10, atol=1e-12, t_eval=[0.5, 1.0, 2.0])
    ",".join(repr(i / 7.0) for i in range(300))
    return time.perf_counter() - t0


class HostSpeed:
    """Probe times taken between timed intervals."""

    def __init__(self):
        self.probes: list[float] = []
        self.mark()

    def mark(self) -> int:
        """Probe now; returns the probe's index."""
        # the faster of two, so that one preemption does not count
        self.probes.append(min(_probe_once(), _probe_once()))
        return len(self.probes) - 1

    def scale(self, seconds: float, after: int) -> float:
        """`seconds` measured just before probe `after`, at reference speed."""
        window = self.probes[max(0, after - HOST_WINDOW):after + HOST_WINDOW]
        return seconds * HOST_PROBE_REF_S / statistics.fmean(window)


def import_program():
    """gausslind.cli from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "gausslind" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src / 'gausslind'}")
    sys.path.insert(0, str(src))
    import gausslind.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "gausslind").resolve():
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's copy")
    return cli


def measure_setup(host: HostSpeed, workload: str, seed: int) -> tuple[float, float]:
    """Median seconds, raw and scaled, from starting an interpreter to the
    first scenario being written, over SETUP_REPEATS fresh interpreters."""
    runs = []
    host.mark()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), str(BENCH),
             workload, str(seed), str(WORK / "setup.json")],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        runs.append((time.perf_counter() - t0, host.mark()))
    return (statistics.median(t for t, _ in runs),
            statistics.median(host.scale(t, after) for t, after in runs))


@dataclass
class Outcome:
    cfg: dict
    items: int
    seconds: float
    probe: int
    exit_code: int
    error: str = ""
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)

    @property
    def failure_class(self) -> str:
        if self.exit_code != 0:
            return f"exit {self.exit_code} {self.error}"
        return "output check"


def run_scenario(cli, cfg: dict, out_dir: Path, host: HostSpeed | None = None) -> Outcome:
    """One `gausslind run`, timed from main entry until its CSV is written;
    with `host`, a host-speed probe follows."""
    path = WORK / "scenarios" / (Path(cfg["output_path"]).stem + ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    stderr = io.StringIO()
    error = ""
    with contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            code = cli.main(["run", str(path), "--out", str(out_dir), "--threads", "1"])
        except Exception as exc:  # a crash is a failed scenario, not a failed benchmark
            code, error = -1, type(exc).__name__
        seconds = time.perf_counter() - t0
    probe = host.mark() if host else -1
    if code != 0 and not error:
        error = _error_class(stderr.getvalue())
    problems = outputs.check(cfg, out_dir / cfg["output_path"]) if code == 0 else []
    return Outcome(cfg, workloads.items(cfg), seconds, probe, code, error, problems)


def _error_class(stderr: str) -> str:
    for line in reversed(stderr.splitlines()):
        try:
            return json.loads(line)["error"]
        except (ValueError, KeyError, TypeError):
            continue
    return "unreported"


class Checker:
    """Output checks, reference comparison and failure accounting."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.reference = {}
        if seed == outputs.REFERENCE_SEED:
            self.reference = outputs.load_reference(REFERENCE).get(workload, {})
        self.problems: list[str] = []
        self.failures: dict[str, int] = {}
        self.attempted = self.failed = 0

    def record(self, o: Outcome, out_dir: Path) -> None:
        self.attempted += o.items
        name = o.cfg["output_path"]
        if o.exit_code == 0 and name in self.reference:
            o.problems += outputs.compare(self.workload, out_dir / name, self.reference[name])
        self.problems += [f"{name}: {p}" for p in o.problems]
        if o.failed:
            self.failed += o.items
            self.failures[o.failure_class] = self.failures.get(o.failure_class, 0) + o.items

    def report(self) -> None:
        print(f"attempted {self.attempted} items, failed {self.failed}"
              f" (fail_share {self.failed / max(self.attempted, 1):.6f})")
        for cls, n in sorted(self.failures.items()):
            print(f"  failed items: {n} by {cls}")
        for p in self.problems:
            print(f"  CHECK FAILED {p}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(cli, workload: str, seed: int, seconds: float) -> tuple[Checker, dict]:
    host = HostSpeed()
    setup_raw, setup_s = measure_setup(host, workload, seed)
    out_dir = fresh_dir(WORK / "out")
    run_scenario(cli, dict(workloads.first_round(workload, seed)[0], output_path="warmup.csv"),
                 out_dir)

    checker = Checker(workload, seed)
    done: list[Outcome] = []
    deadline = time.perf_counter() + seconds
    host.mark()
    for batch in workloads.rounds(workload, seed):
        if done and time.perf_counter() >= deadline:
            break
        for cfg in batch:
            o = run_scenario(cli, cfg, out_dir, host)
            checker.record(o, out_dir)
            (out_dir / cfg["output_path"]).unlink(missing_ok=True)
            done.append(o)

    ok_items = sum(o.items for o in done if not o.failed)
    figures = {}
    raw = [o.seconds for o in done]
    scaled = [host.scale(o.seconds, o.probe) for o in done]
    for kind, times in (("raw", raw), ("scaled", scaled)):
        figures[kind] = (ok_items / sum(times), 1e3 * statistics.median(times),
                         1e3 * statistics.quantiles(times, n=10, method="inclusive")[8])
    print(f"{len(done)} scenarios in {len(done) // len(batch)} rounds")
    print("unscaled " + json.dumps(dict(zip(
        ("items_per_s", "scenario_ms_p50", "scenario_ms_p90", "setup_s"),
        (*figures["raw"], setup_raw)))))
    items_per_s, p50, p90 = figures["scaled"]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return checker, {
        "items_per_s": metric(items_per_s, "1/s"),
        "scenario_ms_p50": metric(p50, "ms"),
        "scenario_ms_p90": metric(p90, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def known_defect(cli) -> dict:
    """Run the transport failure region as one map and cell by cell."""
    out_dir = fresh_dir(WORK / "known_defect")
    plane = run_scenario(cli, workloads.KNOWN_DEFECT_PLANE, out_dir)
    cells = [run_scenario(cli, c, out_dir) for c in workloads.known_defect_cells()]
    failed = [c for c in cells if c.failed]
    classes = sorted({c.failure_class for c in failed})
    print(f"known defect: the {plane.items}-cell transport plane ends with exit "
          f"{plane.exit_code} {plane.error}; cell by cell {len(failed)} of "
          f"{len(cells)} fail ({', '.join(classes) or 'none'})")
    return {
        "known_defect.plane_cells_lost": metric(plane.items if plane.failed else 0, "count"),
        "known_defect.cells_failed": metric(len(failed), "count"),
    }


def traced_run(cli, workload: str, seed: int) -> tuple[Checker, dict]:
    """The first round of the seed, untraced and then traced; the traced
    CSVs must equal the untraced ones byte for byte."""
    from tracer import Tracer

    batch = workloads.first_round(workload, seed)
    plain_dir, traced_dir = fresh_dir(WORK / "plain"), fresh_dir(WORK / "traced")
    run_scenario(cli, dict(batch[0], output_path="warmup.csv"), plain_dir)

    checker = Checker(workload, seed)
    host = HostSpeed()
    plain = []
    for cfg in batch:
        plain.append(run_scenario(cli, cfg, plain_dir, host))
        checker.record(plain[-1], plain_dir)
    tracer = Tracer()
    traced = []
    with tracer:
        for i, cfg in enumerate(batch):
            tracer.scenario = i
            traced.append(run_scenario(cli, cfg, traced_dir, host))
    plain_s = sum(host.scale(o.seconds, o.probe) for o in plain)
    traced_s = sum(host.scale(o.seconds, o.probe) for o in traced)
    for cfg in batch:
        a, b = plain_dir / cfg["output_path"], traced_dir / cfg["output_path"]
        if a.is_file() != b.is_file() or (a.is_file() and a.read_bytes() != b.read_bytes()):
            checker.problems.append(f"{cfg['output_path']}: traced output differs")
    tracer.write(WORK / f"spans_{workload}.npz")

    items = sum(workloads.items(cfg) for cfg in batch)
    m = layer_metrics(tracer.summary(), tracer.counts, items)
    m["trace_overhead"] = metric(traced_s / plain_s, "ratio")
    m["fail_share"] = metric(checker.failed / checker.attempted, "ratio")
    m.update(known_defect(cli) if workload == "map_transport" else {
        "known_defect.plane_cells_lost": metric(0, "count"),
        "known_defect.cells_failed": metric(0, "count")})
    return checker, m


def layer_metrics(summary: dict, counts: dict, items: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from span totals and counters."""

    def span(name: str, key: str):
        return summary.get(name, {}).get(key, 0)

    n = {
        "cli.rows_written": counts["cli.rows_written"],
        "cosmology.discord_cosmo.calls": span("cosmology.discord_cosmo", "calls"),
        "cosmology.asymptotic_coefficients.calls":
            span("cosmology.asymptotic_coefficients", "calls"),
        "cosmology.logsumexp.calls": span("cosmology.logsumexp", "calls"),
        "discord.assembly.calls": span("discord.assembly", "calls"),
        "specfun.gamma.calls.series": counts["specfun.gamma.series"],
        "specfun.gamma.calls.cf": counts["specfun.gamma.cf"],
        "specfun.oscillatory_moment.calls": span("specfun.oscillatory_moment", "calls"),
        "specfun.oscillatory_moment_limits.calls":
            span("specfun.oscillatory_moment_limits", "calls"),
        "cosmology.exact_open_covariance.calls":
            span("cosmology.exact_open_covariance", "calls"),
        "opensys.quad.subintervals": span("opensys.quad", "calls"),
        "opensys.quad.warnings": counts["opensys.quad.warnings"],
        "symplectic.blocks_built": counts["symplectic.blocks_built"],
        "opensys.evolve_open.calls": span("opensys.evolve_open", "calls"),
        "opensys.rhs_calls": span("opensys.transport_rhs_open", "calls"),
        "closed.squeezing.calls": span("closed.squeezing", "calls"),
    }
    s = {
        "cli.self_s": span("cli.main", "self_s"),
        "cosmology.discord_cosmo.self_s": span("cosmology.discord_cosmo", "self_s"),
        "cosmology.logsumexp.s": span("cosmology.logsumexp", "s"),
        "discord.assembly.s": span("discord.assembly", "s"),
        "specfun.gamma.s": span("specfun.gamma", "s"),
        "cosmology.exact_open_covariance.self_s":
            span("cosmology.exact_open_covariance", "self_s"),
        "cosmology.exact_open_det.s": span("cosmology.exact_open_det", "s"),
        "opensys.quad.s": span("opensys.quad", "s"),
        "opensys.evolve_open.s": span("opensys.evolve_open", "s"),
        "opensys.rhs_s": span("opensys.transport_rhs_open", "s") + span("opensys.det_rhs", "s"),
        "closed.transport_rhs_closed.self_s": span("closed.transport_rhs_closed", "self_s"),
        "symplectic.squeezing_from_covariance.s":
            span("symplectic.squeezing_from_covariance", "s"),
        "symplectic.particle_statistics.s": span("symplectic.particle_statistics", "s"),
    }
    m = {}
    for name, v in n.items():
        m[name] = metric(v, "count")
        m[name + ".per_item"] = metric(v / items, "count/item")
    m.update({name: metric(v, "s") for name, v in s.items()})
    return m


def record_reference(cli, workload: str) -> None:
    """Store sampled rows of the reference seed's first round."""
    out_dir = fresh_dir(WORK / "reference")
    rows = {}
    for cfg in workloads.first_round(workload, outputs.REFERENCE_SEED):
        o = run_scenario(cli, cfg, out_dir)
        if o.failed:
            raise SystemExit(f"perfbench: reference scenario failed: {o.failure_class}"
                             f" {o.problems}")
        csv_rows = outputs.read_csv(out_dir / cfg["output_path"])[2]
        rows[cfg["output_path"]] = outputs.sample(csv_rows)
    ref = outputs.load_reference(REFERENCE) if REFERENCE.is_file() else {}
    ref[workload] = rows
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, default=outputs.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite this workload's entry in reference.json")
    args = ap.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.record_reference:
            rest.append("--record-reference")
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode
                 for w in workloads.WORKLOADS]
        return max(codes, key=abs)

    cli = import_program()
    fresh_dir(WORK)
    if args.record_reference:
        record_reference(cli, args.workload)
        return 0
    if args.trace:
        checker, metrics = traced_run(cli, args.workload, args.seed)
    else:
        checker, metrics = timed_run(cli, args.workload, args.seed, args.seconds)
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    checker.report()
    print(json.dumps({"correct": not checker.problems, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
