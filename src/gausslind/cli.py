"""Configuration-driven command line front end.

    gausslind run <config.json> [--out DIR] [--threads N]
    gausslind selfcheck

(--threads is accepted for compatibility and has no effect: a
discord_map runs in a single thread, in the blocks of discord_cosmo.)

A scenario is one JSON document selecting a mode and its parameters; the
output is one UTF-8 CSV file with '#'-prefixed header comments carrying
the tool version and a hash of the configuration, so that identical
configs produce identical bytes.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure; failures emit one JSON object on stderr.

Numeric config keys must be JSON numbers: a boolean or a string exits 2.
`selfcheck`, as the subcommand or as a config mode, runs through the same
dispatch and exits the same way.

Every CSV is written by one rule: a runner hands over its values as
columns, each float written as its shortest round-trip `repr` and each
text value as itself, and `_lines` joins the columns into lines.  A
discord_map is formatted a block of `_plane_blocks` at a time, each p and
log10_kGamma label once per block (`_map_lines`).  The argument parser is
built once per process.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import replace
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .closed import ModeFrequency, wigner_ellipse
from .cosmology import (
    PLANE_BLOCK_CELLS,
    CosmoParams,
    _plane_blocks,
    cosmo_kernel,
    de_sitter_squeezing,
    discord_cosmo,
    evolve_de_sitter,
    offset_singular_p,
    power_spectrum_correction,
)
from .errors import ConfigError, DomainError, GausslindError, StepFailureError
from .opensys import evolve_open
from .symplectic import particle_statistics, SqueezingState
from . import selfcheck as _selfcheck

MODES = ("evolve_closed", "evolve_open", "discord_map", "ellipse_series",
         "spectrum", "selfcheck")


def _lines(*columns):
    """One CSV line per row of `columns`, equal-length iterables of text."""
    return map(",".join, zip(*columns))


def _write_csv(path: Path, header: list[str], rows, config_hash: str) -> None:
    """Write the header comments, the header and `rows`, an iterable of
    formatted CSV lines (one data row each, no newline), streaming.

    An output that cannot be created raises ConfigError (exit 2)."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc
    with fh:
        fh.write(f"# gausslind {__version__}\n")
        fh.write(f"# config sha256: {config_hash}\n")
        fh.write(",".join(header) + "\n")
        for line in rows:
            fh.write(line + "\n")


def _require(cfg: dict, key: str, typ=None):
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r}")
    v = cfg[key]
    if typ is not None and not isinstance(v, typ):
        raise ConfigError(f"config key {key!r} has wrong type {type(v).__name__}")
    return v


def _finite(value, what: str) -> float:
    # bool is an int: JSON true would read as 1.0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the range of doubles
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return v


def _pair(cfg: dict, key: str, default) -> list:
    v = cfg.get(key, default)
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ConfigError(f"config key {key!r} must be a pair, got {v!r}")
    return [_finite(e, key) for e in v]


def _range(cfg: dict, key: str, default) -> list:
    lo, hi = _pair(cfg, key, default)
    if lo > hi:
        raise ConfigError(f"config key {key!r} must run from low to high, got {[lo, hi]}")
    return [lo, hi]


def _positive(value, what: str) -> float:
    v = _finite(value, what)
    if v <= 0.0:
        raise ConfigError(f"{what} must be > 0, got {value!r}")
    return v


def _count(value, what: str, least: int) -> int:
    v = _finite(value, what)
    if v < least or not v.is_integer():
        raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(v)


def _cosmo_params(cfg: dict) -> CosmoParams:
    c = _require(cfg, "cosmo", dict)
    try:
        return CosmoParams(
            kGamma_over_kstar=_finite(_require(c, "kGamma_over_kstar"),
                                      "cosmo.kGamma_over_kstar"),
            p=_finite(_require(c, "p"), "cosmo.p"),
            ellH=_finite(_require(c, "ellH"), "cosmo.ellH"),
            k_over_kstar=_finite(c.get("k_over_kstar", 1.0), "cosmo.k_over_kstar"),
            x_star=_finite(c.get("x_star", 1.0), "cosmo.x_star"),
        )
    except DomainError as exc:
        raise ConfigError(f"invalid cosmo parameters: {exc}") from exc


def _grid(cfg: dict) -> np.ndarray:
    g = _require(cfg, "grid", dict)
    x_start = _positive(_require(g, "x_start"), "grid.x_start")
    x_end = _positive(_require(g, "x_end"), "grid.x_end")
    points = _count(_require(g, "points"), "grid.points", 2)
    if x_start == x_end:
        raise ConfigError("grid endpoints must be distinct")
    return np.geomspace(x_start, x_end, points)


TRAJECTORY_HEADER = ["x", "g11", "g12", "g22", "r", "phi", "lam", "purity"]


def _trajectory_columns(traj, x_grid) -> list:
    """The TRAJECTORY_HEADER columns of a trajectory, lists of floats."""
    r, phi, lam = traj.squeezing()
    return [c.tolist() for c in (x_grid, traj.g11, traj.g12, traj.g22, r, phi, lam,
                                 traj.purity)]


#: built-in frequency presets for the evolution modes; the grid variable
#: is x = -eta in every preset (for "free" the frequency is constant and
#: x is simply a reversed clock)
FREQUENCY_PRESETS = ("de_sitter", "free")


def _preset(cfg: dict) -> str:
    preset = cfg.get("preset", "de_sitter")
    if preset not in FREQUENCY_PRESETS:
        raise ConfigError(
            f"unknown preset {preset!r}; expected one of {FREQUENCY_PRESETS}")
    return preset


def _evolve(cfg: dict, x_grid, source):
    """Transport over x_grid under the configured preset and tolerances."""
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("config key 'tolerances' must be an object")
    rtol = _positive(tol.get("rtol", 1e-11), "tolerances.rtol")
    atol = _positive(tol.get("atol", 1e-12), "tolerances.atol")
    x_start, x_end = float(x_grid[0]), float(x_grid[-1])
    try:
        if _preset(cfg) == "de_sitter":
            return evolve_de_sitter(x_start, x_end, source, x_eval=x_grid,
                                    rtol=rtol, atol=atol)
        return evolve_open(ModeFrequency.free(1.0), source, (-x_start, -x_end),
                           t_eval=[-float(x) for x in x_grid], rtol=rtol, atol=atol)
    except DomainError as exc:  # a window or an rtol below the floor
        raise ConfigError(str(exc)) from exc


def run_evolve_closed(cfg: dict, path: Path, cfg_hash: str) -> None:
    x_grid = _grid(cfg)
    traj = _evolve(cfg, x_grid, None)
    _write_csv(path, TRAJECTORY_HEADER,
               _lines(*(map(repr, c) for c in _trajectory_columns(traj, x_grid))), cfg_hash)


def run_evolve_open(cfg: dict, path: Path, cfg_hash: str) -> None:
    x_grid = _grid(cfg)
    if x_grid[-1] > x_grid[0]:
        raise ConfigError("evolve_open needs x_start > x_end: a source only "
                          "runs forward in time")
    if "source_const" in cfg:
        # generic constant dimensionless source, any frequency preset
        s0 = _finite(cfg["source_const"], "source_const")
        if s0 < 0.0:
            raise ConfigError("source_const must be >= 0")
        source = lambda t: s0
    else:
        params = _cosmo_params(cfg)
        if x_grid[0] > params.x_coupling_on:
            raise ConfigError(
                f"grid must start at or below the coupling-on point "
                f"{params.x_coupling_on}")
        try:  # the coupling's square, or a power of ellH or k/k* that overflows
            source = cosmo_kernel(params)
        except DomainError as exc:
            raise ConfigError(f"invalid cosmo parameters: {exc}") from exc
    traj = _evolve(cfg, x_grid, source)
    cols = _trajectory_columns(traj, x_grid)
    stats = particle_statistics(traj)
    abs_c = np.hypot(stats.c.real, stats.c.imag)  # closer to mpmath than np.abs
    cols += [np.sqrt(cols[6]).tolist(), stats.n.tolist(), abs_c.tolist()]  # sqrt(lam)
    _write_csv(path, TRAJECTORY_HEADER + ["sigma0", "n_pairs", "abs_c"],
               _lines(*(map(repr, c) for c in cols)), cfg_hash)


def run_discord_map(cfg: dict, path: Path, cfg_hash: str) -> None:
    p_lo, p_hi = _range(cfg, "p_range", (0.1, 9.9))
    k_lo, k_hi = _range(cfg, "log10_kGamma_range", (-10.0, 6.0))
    n_p, n_k = (_count(n, "map_points", 1) for n in _pair(cfg, "map_points", (40, 40)))
    x = _finite(cfg.get("x", math.exp(-20.0)), "x")
    theta = _finite(cfg.get("theta", -math.pi / 4.0), "theta")
    cosmo = cfg.get("cosmo", {})
    if not isinstance(cosmo, dict):
        raise ConfigError("config key 'cosmo' must be an object")
    if set(cosmo) - {"ellH"}:  # p and kGamma come from their ranges
        raise ConfigError(f"discord_map reads only cosmo.ellH, got keys {sorted(cosmo)}")
    ellH = _finite(cosmo.get("ellH", 1e-3), "cosmo.ellH")
    method = cfg.get("method", "approx")
    p_vals = np.linspace(p_lo, p_hi, n_p)
    k_vals = np.linspace(k_lo, k_hi, n_k)
    with np.errstate(over="ignore"):
        couplings = 10.0 ** k_vals
    if not np.all(np.isfinite(couplings)):
        raise ConfigError("log10_kGamma_range overflows a double")
    p_row = [offset_singular_p(p) for p in p_vals.tolist()]
    try:  # discord_cosmo checks the method, x and the couplings before it runs
        params = CosmoParams(kGamma_over_kstar=0.0, p=p_row[0], ellH=ellH)
        res = discord_cosmo(x, theta, params, method=method, kGamma_over_kstar=couplings,
                            p=np.array(p_row))
    except DomainError as exc:
        raise ConfigError(f"invalid discord_map: {exc}") from exc
    _write_csv(path, ["p", "log10_kGamma_kstar", "discord", "purity"],
               _map_lines(p_vals, k_vals, res), cfg_hash)


def _map_lines(p_vals, k_vals, res):
    """CSV lines of a discord map, formatted column by column in the blocks
    of discord_cosmo: lists of a whole map, or of one long row, would hold
    a string per cell.  Each label is formatted once per block."""
    for block in _plane_blocks(len(p_vals), len(k_vals), PLANE_BLOCK_CELLS):
        k_labels = list(map(repr, k_vals[block[1]].tolist()))
        for p, discord, ln_s0 in zip(p_vals[block[0]].tolist(), res.discord[block],
                                     res.log_sigma_zero[block]):
            # math.exp: np.exp can differ from it in the last bit
            purity = map(math.exp, (-2.0 * ln_s0).tolist())
            yield from _lines(repeat(repr(p)), k_labels, map(repr, discord.tolist()),
                              map(repr, purity))


def run_ellipse_series(cfg: dict, path: Path, cfg_hash: str) -> None:
    x_grid = _grid(cfg)
    n_sigma = _positive(cfg.get("n_sigma", math.sqrt(2.0)), "n_sigma")
    xs = x_grid.tolist()
    ells = [wigner_ellipse(SqueezingState(*de_sitter_squeezing(x), 1.0), n_sigma)
            for x in xs]
    cols = [[-math.log(x) for x in xs], [e.semi_major for e in ells],
            [e.semi_minor for e in ells], [e.tilt for e in ells],
            [e.semi_major / e.semi_minor for e in ells]]
    if not all(map(math.isfinite, chain.from_iterable(cols))):  # n_sigma ~ 1e308
        raise StepFailureError(f"ellipse_series: a value is not finite at n_sigma = {n_sigma}")
    _write_csv(path, ["efolds", "semi_major", "semi_minor", "tilt", "axis_ratio"],
               _lines(*(map(repr, c) for c in cols)), cfg_hash)


def run_spectrum(cfg: dict, path: Path, cfg_hash: str) -> None:
    base = _cosmo_params(cfg)
    k_lo, k_hi = (_positive(k, "k_range") for k in _range(cfg, "k_range", (1e-2, 1e2)))
    points = _count(cfg.get("points", 41), "points", 1)
    ks = np.geomspace(k_lo, k_hi, points).tolist()
    try:  # the coupling's square, or a power of ellH or k/k* that overflows
        corrs = [power_spectrum_correction(replace(base, k_over_kstar=k)) for k in ks]
    except DomainError as exc:
        raise ConfigError(f"invalid cosmo parameters: {exc}") from exc
    _write_csv(path, ["k_over_kstar", "dP_over_P", "regime", "time_dependent"],
               _lines(map(repr, ks), [repr(c.value) for c in corrs],
                      [c.regime.value for c in corrs],
                      ["true" if c.time_dependent else "false" for c in corrs]),
               cfg_hash)


RUNNERS = {
    "evolve_closed": run_evolve_closed,
    "evolve_open": run_evolve_open,
    "discord_map": run_discord_map,
    "ellipse_series": run_ellipse_series,
    "spectrum": run_spectrum,
}


def run_config(cfg: dict, out_dir: Path) -> int:
    mode = _require(cfg, "mode", str)
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "selfcheck":
        return 0 if _selfcheck.run_all() else 3
    name = cfg.get("output_path", f"{mode}.csv")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"config key 'output_path' must be a non-empty string, got {name!r}")
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    cfg_hash = hashlib.sha256(canon.encode()).hexdigest()
    RUNNERS[mode](cfg, out_dir / name, cfg_hash)
    return 0


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (building it costs
    several times what one parse does)."""
    parser = argparse.ArgumentParser(
        prog="gausslind",
        description="Gaussian-state evolution and discord scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a JSON scenario")
    p_run.add_argument("config", help="path to the scenario JSON file")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
    sub.add_parser("selfcheck", help="run the built-in validation suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: a configuration error exits 2 and a numerical
    failure 3, each with one JSON line on stderr."""
    args = _parser().parse_args(argv)
    try:
        if args.command == "selfcheck":
            return run_config({"mode": "selfcheck"}, Path("."))
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
            raise ConfigError(f"cannot read {args.config!r}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        return run_config(cfg, Path(args.out))
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except (GausslindError, ValueError, ArithmeticError) as exc:
        _emit_error(exc)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
