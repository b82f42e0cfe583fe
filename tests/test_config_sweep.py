"""A malformed-config sweep of the command line: every key path of a small
config of every mode (each key, each key of an object, each element of a
pair) set to each value of VALUES in turn, and one unknown key added to
each object.  Every case must exit 0, 2 or 3 with no uncaught exception,
at most one line on stderr, which is one JSON object, and no case may run
for longer than CASE_SECONDS.  The cases are a fixed product, the same on
every run."""

import json
import math
import signal

import pytest

from gausslind.cli import main

#: JSON values of every kind, among them the edges of the doubles; 10**400
#: is a JSON integer beyond their range
VALUES = [None, True, "s", [], {}, math.nan, 1e308, -1e308, -1, 0, 5e-324, 10 ** 400]
#: the alarm of one case; a case this slow is a hang
CASE_SECONDS = 10.0

_GRID = {"x_start": 10.0, "x_end": 1.0, "points": 3}
_COSMO = {"kGamma_over_kstar": 1.0, "p": 2.1, "ellH": 0.1}
_MAP = {"mode": "discord_map", "output_path": "o.csv", "map_points": [1, 1], "x": 0.5,
        "theta": -0.7, "p_range": [3.3, 3.3], "log10_kGamma_range": [-1.0, -1.0],
        "cosmo": {"ellH": 0.1}}

BASES = {
    "evolve_closed": {"mode": "evolve_closed", "output_path": "o.csv", "grid": _GRID,
                      "preset": "de_sitter", "tolerances": {"rtol": 1e-8, "atol": 1e-10}},
    "evolve_open_cosmo": {"mode": "evolve_open", "output_path": "o.csv", "grid": _GRID,
                          "cosmo": _COSMO, "tolerances": {"rtol": 1e-8, "atol": 1e-10}},
    "evolve_open_const": {"mode": "evolve_open", "output_path": "o.csv", "grid": _GRID,
                          "preset": "free", "source_const": 0.1},
    "discord_map_approx": dict(_MAP, method="approx", x=1e-3),
    "discord_map_exact": dict(_MAP, method="exact"),
    "discord_map_transport": dict(_MAP, method="transport", x=1e-3),
    "ellipse_series": {"mode": "ellipse_series", "output_path": "o.csv", "grid": _GRID,
                       "n_sigma": 1.5},
    "spectrum": {"mode": "spectrum", "output_path": "o.csv", "cosmo": _COSMO,
                 "k_range": [0.5, 2.0], "points": 3},
    "selfcheck": {"mode": "selfcheck"},
}


def _paths(value, prefix=()):
    """The key path of every key, object key and pair element of value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, sub in items:
        yield prefix + (key,)
        if isinstance(sub, (dict, list)):
            yield from _paths(sub, prefix + (key,))


def _objects(value, prefix=()):
    """The key path of value and of every object in it."""
    yield prefix
    for key, sub in value.items():
        if isinstance(sub, dict):
            yield from _objects(sub, prefix + (key,))


def _cases(base):
    """(label, config) of every case of a base config."""
    for path in _paths(base):
        for value in VALUES:
            cfg = json.loads(json.dumps(base))
            leaf = cfg
            for key in path[:-1]:
                leaf = leaf[key]
            leaf[path[-1]] = value
            yield f"{'.'.join(map(str, path))}={value!r}"[:80], cfg
    for path in _objects(base):
        cfg = json.loads(json.dumps(base))
        leaf = cfg
        for key in path:
            leaf = leaf[key]
        leaf["unknown_key"] = 1.0
        yield f"{'.'.join(path + ('unknown_key',))}", cfg


def _alarm(signum, frame):
    raise TimeoutError(f"a case ran for more than {CASE_SECONDS} s")


@pytest.mark.parametrize("base", sorted(BASES))
def test_malformed_configs_exit_cleanly(tmp_path, capsys, base):
    config, failures = tmp_path / "case.json", []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for label, cfg in _cases(BASES[base]):
            config.write_text(json.dumps(cfg))
            signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
            try:
                code = main(["run", str(config), "--out", str(tmp_path)])
            except Exception as exc:  # noqa: BLE001 - the failure is the finding
                code = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            lines = capsys.readouterr().err.splitlines()
            if code not in (0, 2, 3) or len(lines) > 1 or not all(
                    isinstance(json.loads(line), dict) for line in lines):
                failures.append((label, code, lines))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, failures


@pytest.mark.parametrize("base", sorted(BASES))
def test_unknown_keys_exit_2(tmp_path, capsys, base):
    # every unknown key, at the top level and in each object, is refused
    for label, cfg in _cases(BASES[base]):
        if not label.endswith("unknown_key"):
            continue
        config = tmp_path / "case.json"
        config.write_text(json.dumps(cfg))
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2, label
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "unknown_key" in err["message"], label
        assert not (tmp_path / "o.csv").exists()
