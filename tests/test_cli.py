import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gausslind import cli, selfcheck
from gausslind.cli import main
from gausslind.selfcheck import CHECKS

from conftest import count_rhs_calls, record_intervals


def run_cli(args):
    return main(list(args))


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#") or not line:
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows


class TestEvolveClosedScenario:
    def test_hubble_crossing_row(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mode": "evolve_closed",
            "grid": {"x_start": 100.0, "x_end": 0.01, "points": 9},
            "output_path": "closed.csv",
        })
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "closed.csv")
        assert header[:4] == ["x", "g11", "g12", "g22"]
        assert "purity" in header and "r" in header and "phi" in header
        row = {h: float(v) for h, v in zip(header, rows[4])}
        assert abs(row["x"] - 1.0) < 1e-12
        assert abs(row["g11"] - 2.0) < 1e-6
        assert abs(row["g12"] - 1.0) < 1e-6
        assert abs(row["g22"] - 1.0) < 1e-6
        assert abs(row["r"] - 0.481212) < 1e-6
        assert abs(row["purity"] - 1.0) < 1e-9

    def test_byte_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mode": "evolve_closed",
            "grid": {"x_start": 10.0, "x_end": 0.1, "points": 5},
            "output_path": "a.csv",
        })
        run_cli(["run", cfg, "--out", str(tmp_path / "run1")])
        run_cli(["run", cfg, "--out", str(tmp_path / "run2")])
        assert (tmp_path / "run1" / "a.csv").read_bytes() \
            == (tmp_path / "run2" / "a.csv").read_bytes()

    def test_header_comments(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mode": "evolve_closed",
            "grid": {"x_start": 10.0, "x_end": 0.1, "points": 3},
        })
        run_cli(["run", cfg, "--out", str(tmp_path)])
        text = (tmp_path / "evolve_closed.csv").read_text()
        assert text.startswith("# gausslind ")
        assert "# config sha256: " in text


class TestEvolveOpenScenario:
    def test_columns_and_purity(self, tmp_path):
        cfg = write_config(tmp_path, "o.json", {
            "mode": "evolve_open",
            "cosmo": {"kGamma_over_kstar": 10.0, "p": 2.1, "ellH": 0.1},
            "grid": {"x_start": 10.0, "x_end": 0.05, "points": 8},
            "output_path": "open.csv",
        })
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "open.csv")
        for col in ("lam", "sigma0", "n_pairs", "abs_c"):
            assert col in header
        purity = [float(r[header.index("purity")]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(purity, purity[1:]))
        last = {h: float(v) for h, v in zip(header, rows[-1])}
        assert abs(last["sigma0"] - math.sqrt(last["lam"])) < 1e-9 * last["sigma0"]


class TestPresets:
    def test_free_preset_vacuum_stationary(self, tmp_path):
        cfg = write_config(tmp_path, "f.json", {
            "mode": "evolve_closed",
            "preset": "free",
            "grid": {"x_start": 10.0, "x_end": 1.0, "points": 5},
            "output_path": "free.csv",
        })
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "free.csv")
        for r in rows:
            row = {h: float(v) for h, v in zip(header, r)}
            assert abs(row["g11"] - 1.0) < 1e-9
            assert abs(row["g22"] - 1.0) < 1e-9

    def test_free_preset_constant_source(self, tmp_path):
        # vacuum + constant source: only g22 and the determinant grow
        cfg = write_config(tmp_path, "fs.json", {
            "mode": "evolve_open",
            "preset": "free",
            "source_const": 0.25,
            "grid": {"x_start": 9.0, "x_end": 1.0, "points": 5},
            "output_path": "fs.csv",
        })
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fs.csv")
        first = {h: float(v) for h, v in zip(header, rows[0])}
        last = {h: float(v) for h, v in zip(header, rows[-1])}
        assert last["lam"] > first["lam"]
        assert last["purity"] < 1.0
        # the free rotation equipartitions the injected variance
        assert last["g11"] > 1.0 and last["g22"] > 1.0
        assert abs(last["g11"] + last["g22"] - 2.0 - 0.25 * 8.0) < 0.3

    def test_unknown_preset_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", {
            "mode": "evolve_closed",
            "preset": "anharmonic",
            "grid": {"x_start": 10.0, "x_end": 1.0, "points": 3},
        })
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 2


class TestDiscordMapScenario:
    def test_structure_and_threads(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {
            "mode": "discord_map",
            "cosmo": {"ellH": 1e-3},
            "p_range": [0.5, 9.5],
            "log10_kGamma_range": [-10.0, 6.0],
            "map_points": [7, 5],
            "x": math.exp(-20.0),
            "theta": -math.pi / 4,
            "output_path": "map.csv",
        })
        assert run_cli(["run", cfg, "--out", str(tmp_path / "s")]) == 0
        assert run_cli(["run", cfg, "--out", str(tmp_path / "t"),
                        "--threads", "4"]) == 0
        a = (tmp_path / "s" / "map.csv").read_bytes()
        b = (tmp_path / "t" / "map.csv").read_bytes()
        assert a == b
        header, rows = read_csv(tmp_path / "s" / "map.csv")
        data = {(float(r[0]), float(r[1])): (float(r[2]), float(r[3]))
                for r in rows}
        # p < 2 at tiny coupling: pure and maximally discordant
        d, pur = data[(0.5, -10.0)]
        assert d > 100.0 and pur > 0.99
        # 2 < p < 6: decohered yet still strongly discordant
        d, pur = data[(5.0, -10.0)]
        assert d > 50.0 and pur < 0.5
        # p > 6: discord suppressed at any appreciable coupling
        for lk in (-10.0, -2.0, 6.0):
            d, pur = data[(9.5, lk)]
            assert d < 1.0
        d_hi, pur_hi = data[(9.5, 6.0)]
        assert pur_hi < 1e-6
        # strong coupling below p = 6 keeps discord sizeable
        d_lo, _ = data[(3.5, 2.0)]
        assert d_lo > 10.0


    def test_transport_map_is_one_integration(self, tmp_path, monkeypatch):
        # one block: one sub-Hubble collocation over its 3 p rows down to
        # x = 1, then one e-fold collocation, 1 e-fold an interval down to
        # x = 3e-3; no integrator runs
        from gausslind import cosmology, opensys
        blocks, subhubble = [], cosmology._subhubble_response

        def counted_subhubble(x_on, x_s, ps):
            blocks.append((x_on, x_s, len(ps)))
            return subhubble(x_on, x_s, ps)

        monkeypatch.setattr(cosmology, "_subhubble_response", counted_subhubble)
        efold = record_intervals(monkeypatch, "_efold_interval")
        calls = count_rhs_calls(monkeypatch, (opensys, "solve_ivp"))
        cfg = write_config(tmp_path, "t.json", {
            "mode": "discord_map", "method": "transport", "map_points": [3, 4],
            "x": 3e-3, "cosmo": {"ellH": 0.15}, "log10_kGamma_range": [-3.0, 0.0],
            "output_path": "t.csv"})
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "t.csv")[1]) == 12
        assert blocks == [(1.0 / 0.15, 1.0, 3)]
        assert [t for t, _ in efold] == list(range(6)) and not calls

    def test_transport_tail_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # a tolerance no Chebyshev tail of the sub-Hubble collocation meets:
        # each interval halves to its cap, and the map fails in bounded time
        from gausslind import cosmology
        monkeypatch.setattr(cosmology, "TRANSPORT_RTOL", 1e-30)
        cfg = write_config(tmp_path, "t.json", {
            "mode": "discord_map", "method": "transport", "map_points": [2, 2],
            "x": 1e-3, "cosmo": {"ellH": 0.1}, "output_path": "t.csv"})
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "StepFailureError" and "halvings" in err["message"]
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("change", [
        {"map_points": [12, 12], "x": math.exp(-20.0), "cosmo": {"ellH": 0.1}},
        {"map_points": [8, 8], "x": 1e-3, "cosmo": {"ellH": 0.1},
         "log10_kGamma_range": [-2.0, 2.0]},
        {"map_points": [40, 40], "x": math.exp(-20.0), "cosmo": {"ellH": 1e-3}},
    ], ids=["default_ranges_12x12", "known_defect_8x8", "default_40x40"])
    def test_default_range_transport_map_runs(self, tmp_path, change):
        # each of these failed with StepFailureError (exit 3) when every
        # cell was its own member of the integration
        cfg = write_config(tmp_path, "t.json", {
            "mode": "discord_map", "method": "transport", "output_path": "t.csv", **change})
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "t.csv")
        n_p, n_k = change["map_points"]
        assert len(rows) == n_p * n_k
        assert all(math.isfinite(float(v)) for row in rows for v in row)


class TestDiscordMapValidation:
    BASE = {"mode": "discord_map", "map_points": [2, 2], "output_path": "map.csv"}

    @pytest.mark.parametrize("change", [
        {"map_points": [-1, 2]},
        {"map_points": [0, 3]},
        {"x": math.nan},
        {"theta": math.nan},
        {"x": -1.0},
        {"method": "bogus"},
        {"method": ["approx"]},
        {"x": 0.5, "method": "approx"},
        {"cosmo": {"ellH": 1e-3, "x_star": 5, "k_over_kstar": 3}},
        {"cosmo": {"p": 2.1}},
        {"log10_kGamma_range": [150.0, 160.0]},
        {"log10_kGamma_range": [150.0, 160.0], "method": "transport"},
        {"p_range": [-300.0, -100.0]},
        {"p_range": [-300.0, -100.0], "method": "exact", "x": 0.05, "cosmo": {"ellH": 0.1}},
    ], ids=["negative_points", "zero_points", "nan_x", "nan_theta", "negative_x",
            "unknown_method", "unhashable_method", "approx_outside_super_hubble",
            "ignored_cosmo_keys",
            "cosmo_p", "coupling_square_overflows", "transport_coupling_square_overflows",
            "gamma_order_overflows", "exact_gamma_order_overflows"])
    def test_bad_input_exits_2(self, tmp_path, capsys, change):
        cfg = write_config(tmp_path, "m.json", dict(self.BASE, **change))
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "map.csv").exists()

    @pytest.mark.parametrize("pole", [3.0, 6.0])
    def test_integer_p_is_offset_and_smooth(self, tmp_path, pole):
        def discord_at(p):
            cfg = write_config(tmp_path, "m.json", dict(
                self.BASE, map_points=[1, 1], p_range=[p, p],
                log10_kGamma_range=[-2.0, -2.0], output_path=f"{p}.csv"))
            assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 0
            _, rows = read_csv(tmp_path / f"{p}.csv")
            assert float(rows[0][0]) == p
            return float(rows[0][2])

        lo, mid, hi = (discord_at(pole + dp) for dp in (-0.01, 0.0, 0.01))
        assert lo > mid > hi
        assert abs(mid - 0.5 * (lo + hi)) < 0.01 * (lo - hi)


class TestRunInputValidation:
    GRID = {"x_start": 10.0, "x_end": 1.0, "points": 3}
    COSMO = {"kGamma_over_kstar": 10.0, "p": 2.1, "ellH": 0.1}

    # (config, hangs without validation)
    CASES = {
        "nan_source_const": ({"mode": "evolve_open", "preset": "free",
                              "source_const": math.nan, "grid": GRID}, True),
        "nan_rtol": ({"mode": "evolve_closed", "tolerances": {"rtol": math.nan},
                      "grid": GRID}, True),
        "zero_atol": ({"mode": "evolve_closed", "tolerances": {"atol": 0.0},
                       "grid": GRID}, False),
        "nan_points": ({"mode": "evolve_closed",
                        "grid": dict(GRID, points=math.nan)}, False),
        "nan_p_evolve": ({"mode": "evolve_open", "cosmo": dict(COSMO, p=math.nan),
                          "grid": GRID}, False),
        "reversed_grid_open": ({"mode": "evolve_open", "cosmo": COSMO,
                                "grid": {"x_start": 0.01, "x_end": 5.0, "points": 5}},
                               False),
        "nan_coupling_spectrum": ({"mode": "spectrum",
                                   "cosmo": dict(COSMO, kGamma_over_kstar=math.nan)},
                                  False),
        "nan_p_spectrum": ({"mode": "spectrum", "cosmo": dict(COSMO, p=math.nan)},
                           False),
        "negative_k_range": ({"mode": "spectrum", "cosmo": COSMO,
                              "k_range": [-1.0, 10.0]}, False),
        "coupling_square_overflows_spectrum": ({"mode": "spectrum", "cosmo": dict(
            COSMO, kGamma_over_kstar=1e160)}, False),
        "coupling_square_overflows_evolve_open": ({"mode": "evolve_open", "cosmo": dict(
            COSMO, kGamma_over_kstar=1e160), "grid": GRID}, False),
        # exited 3 with a bare OverflowError from k^(p - 5) at k/k* = 1e-2
        "k_power_overflows_spectrum": ({"mode": "spectrum", "cosmo": dict(COSMO, p=-200.0)},
                                       False),
        # and from ellH^(p - 4)
        "ellH_power_overflows_spectrum": ({"mode": "spectrum", "cosmo": dict(COSMO, p=-400.0),
                                           "k_range": [1.0, 2.0]}, False),
        "nan_n_sigma": ({"mode": "ellipse_series", "n_sigma": math.nan,
                         "grid": GRID}, False),
        # backwards from far outside the horizon: g11 would be off by ~10 %
        "reversed_closed_far": ({"mode": "evolve_closed",
                                 "grid": {"x_start": 0.01, "x_end": 10.0, "points": 5}},
                                False),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_input_exits_2(self, tmp_path, capsys, case):
        cfg, hangs = self.CASES[case]
        path = write_config(tmp_path, "bad.json", dict(cfg, output_path="out.csv"))
        if hangs:
            # a subprocess, so that a hang fails the test instead of the suite
            proc = subprocess.run(
                [sys.executable, "-m", "gausslind.cli", "run", path,
                 "--out", str(tmp_path)],
                capture_output=True, text=True, timeout=20)
            code, err = proc.returncode, proc.stderr
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = run_cli(["run", path, "--out", str(tmp_path)])
            err = capsys.readouterr().err
        assert code == 2, err
        assert json.loads(err)["error"] == "ConfigError"
        assert not (tmp_path / "out.csv").exists()


# 10**400 is a JSON integer beyond the range of doubles
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400])
NON_POSITIVE = st.one_of(NON_FINITE, st.floats(max_value=0.0))
NOT_A_COUNT = st.one_of(NON_FINITE, st.integers(max_value=0),
                        st.floats(0.01, 100.0).filter(lambda v: not v.is_integer()))


# JSON values that float() would read as numbers: true, "-0.5"
NOT_A_NUMBER = st.one_of(st.booleans(),
                         st.one_of(st.floats(-1e3, 1e3), st.integers(-100, 100)).map(str))


def _with_bad_element(bad, good=st.floats(-5.0, 5.0)):
    """A pair with a bad element in either place."""
    return st.tuples(bad, good, st.booleans()).map(
        lambda t: [t[0], t[1]] if t[2] else [t[1], t[0]])


def _reversed(lo, hi):
    """A pair in [lo, hi] that runs from high to low."""
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).filter(
        lambda t: t[0] > t[1]).map(list)


class TestValidatorProperties:
    """Every invalid value of a validated key exits 2 with one JSON line,
    before anything is integrated."""

    MAP = {"mode": "discord_map", "map_points": [2, 2]}
    EXACT_MAP = dict(MAP, method="exact", cosmo={"ellH": 0.1})
    TRANSPORT_MAP = dict(MAP, method="transport", cosmo={"ellH": 0.1})
    GRID = {"x_start": 10.0, "x_end": 1.0, "points": 3}
    CLOSED = {"mode": "evolve_closed", "grid": GRID}
    OPEN = {"mode": "evolve_open", "preset": "free", "source_const": 0.1, "grid": GRID}
    SPECTRUM = {"mode": "spectrum", "points": 2,
                "cosmo": {"kGamma_over_kstar": 0.1, "p": 3.5, "ellH": 0.01}}
    ELLIPSE = {"mode": "ellipse_series", "grid": GRID}

    # (base config, key path, invalid values)
    CASES = {
        "x": (MAP, ("x",), st.one_of(NON_POSITIVE, st.floats(min_value=0.1), NOT_A_NUMBER)),
        # 1/ellH = 10
        "x.exact": (EXACT_MAP, ("x",),
                    st.one_of(NON_POSITIVE, st.floats(min_value=10.0), NOT_A_NUMBER)),
        "x.transport": (TRANSPORT_MAP, ("x",),
                        st.one_of(NON_POSITIVE, st.floats(min_value=10.0), NOT_A_NUMBER)),
        "theta": (MAP, ("theta",), st.one_of(NON_FINITE, NOT_A_NUMBER)),
        "p_range": (MAP, ("p_range",), st.one_of(
            _with_bad_element(NON_FINITE), _reversed(0.1, 9.9),
            _with_bad_element(NOT_A_NUMBER))),
        "log10_kGamma_range": (MAP, ("log10_kGamma_range",), st.one_of(
            _with_bad_element(NON_FINITE), _with_bad_element(st.floats(309.0, 1e300)),
            _reversed(-10.0, 6.0), _with_bad_element(NOT_A_NUMBER))),
        "map_points": (MAP, ("map_points",), st.one_of(
            _with_bad_element(NOT_A_COUNT, st.just(2)),
            _with_bad_element(NOT_A_NUMBER, st.just(2)))),
        "cosmo.ellH": (MAP, ("cosmo", "ellH"), st.one_of(
            NON_POSITIVE, st.floats(min_value=1.0), NOT_A_NUMBER)),
        "grid.x_start": (CLOSED, ("grid", "x_start"), st.one_of(NON_POSITIVE, NOT_A_NUMBER)),
        "grid.x_end": (ELLIPSE, ("grid", "x_end"), st.one_of(NON_POSITIVE, NOT_A_NUMBER)),
        "grid.points": (CLOSED, ("grid", "points"),
                        st.one_of(NOT_A_COUNT, st.just(1), NOT_A_NUMBER)),
        "grid.reversed_open": (OPEN, ("grid", "x_end"),
                               st.one_of(st.floats(10.0, 1e3), NOT_A_NUMBER)),
        "tolerances.rtol": (CLOSED, ("tolerances", "rtol"), st.one_of(NON_POSITIVE, NOT_A_NUMBER)),
        "tolerances.atol": (OPEN, ("tolerances", "atol"), st.one_of(NON_POSITIVE, NOT_A_NUMBER)),
        "source_const": (OPEN, ("source_const",), st.one_of(
            NON_FINITE, st.floats(max_value=-1e-300), NOT_A_NUMBER)),
        "k_range": (SPECTRUM, ("k_range",), st.one_of(
            _with_bad_element(NON_POSITIVE), _reversed(1e-2, 1e2),
            _with_bad_element(NOT_A_NUMBER))),
        "n_sigma": (ELLIPSE, ("n_sigma",), st.one_of(NON_POSITIVE, NOT_A_NUMBER)),
        "cosmo.kGamma_over_kstar": (SPECTRUM, ("cosmo", "kGamma_over_kstar"),
                                    st.one_of(NON_FINITE, NOT_A_NUMBER)),
        "cosmo.p": (SPECTRUM, ("cosmo", "p"), st.one_of(NON_FINITE, NOT_A_NUMBER)),
        "points": (SPECTRUM, ("points",), st.one_of(NOT_A_COUNT, NOT_A_NUMBER)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @settings(max_examples=40, derandomize=True, deadline=2000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_invalid_value_exits_2(self, tmp_path, capsys, case, data):
        base, path, values = self.CASES[case]
        cfg = json.loads(json.dumps(dict(base, output_path="prop.csv")))
        leaf = cfg
        for key in path[:-1]:
            leaf = leaf.setdefault(key, {})
        leaf[path[-1]] = data.draw(values, label=case)
        code = run_cli(["run", write_config(tmp_path, "prop.json", cfg), "--out", str(tmp_path)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2, lines
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigError"
        assert not (tmp_path / "prop.csv").exists()


class TestEllipseScenario:
    def test_series(self, tmp_path):
        xs = [math.exp(5.0), math.exp(2.0), 1.0, math.exp(-2.0), math.exp(-5.0)]
        cfg = write_config(tmp_path, "e.json", {
            "mode": "ellipse_series",
            "grid": {"x_start": xs[0], "x_end": xs[-1], "points": 5},
            "output_path": "ell.csv",
        })
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "ell.csv")
        by_n = {round(float(r[0])): {h: float(v) for h, v in zip(header, r)}
                for r in rows}
        # sub-Hubble: circle to 1e-3
        assert abs(by_n[-5]["axis_ratio"] - 1.0) < 1e-3
        # Hubble crossing: ratio e^{2r} with r ~ 0.481
        want = math.exp(2.0 * 0.4812118250596034)
        assert abs(by_n[0]["axis_ratio"] - want) < 1e-9 * want
        # tilt approaches zero on super-Hubble scales
        assert abs(by_n[5]["tilt"]) < abs(by_n[0]["tilt"])
        assert abs(by_n[5]["tilt"]) < 0.01


class TestSpectrumScenario:
    def test_scale_invariant_p5(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "mode": "spectrum",
            "cosmo": {"kGamma_over_kstar": 0.1, "p": 5.0, "ellH": 0.01},
            "k_range": [0.01, 100.0],
            "points": 7,
            "output_path": "spec.csv",
        })
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "spec.csv")
        vals = [float(r[1]) for r in rows]
        assert max(vals) - min(vals) < 1e-10 * abs(vals[0])

    def test_p3_slope(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "mode": "spectrum",
            "cosmo": {"kGamma_over_kstar": 0.1, "p": 3.0, "ellH": 0.01},
            "k_range": [1.0, 10.0],
            "points": 2,
            "output_path": "s3.csv",
        })
        run_cli(["run", cfg, "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "s3.csv")
        ratio = float(rows[1][1]) / float(rows[0][1])
        assert abs(ratio - 10.0 ** -2.0) < 1e-10

    def test_p9_growing_flag(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "mode": "spectrum",
            "cosmo": {"kGamma_over_kstar": 0.1, "p": 9.0, "ellH": 0.01},
            "k_range": [1.0, 2.0],
            "points": 2,
            "output_path": "s9.csv",
        })
        run_cli(["run", cfg, "--out", str(tmp_path)])
        header, rows = read_csv(tmp_path / "s9.csv")
        assert all(r[header.index("time_dependent")] == "true" for r in rows)


class TestErrorChannel:
    def test_config_errors_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in (b"{not json", b'{"mode": "\xff"}', b"[1]"):
            bad.write_bytes(text)
            assert run_cli(["run", str(bad)]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigError"
        assert run_cli(["run", str(tmp_path / "missing.json")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

        cfg = write_config(tmp_path, "m.json", {"mode": "nope"})
        assert run_cli(["run", cfg]) == 2
        cfg = write_config(tmp_path, "g.json", {
            "mode": "evolve_closed",
            "grid": {"x_start": 1.0, "x_end": 0.1, "points": 1},
        })
        assert run_cli(["run", cfg]) == 2

    def test_numerical_errors_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "mode": "spectrum",
            "cosmo": {"kGamma_over_kstar": 0.1, "p": 4.0, "ellH": 0.01},
            "k_range": [1.0, 2.0],
            "points": 2,
        })
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SingularExponentError"

    @pytest.mark.parametrize("x", [1e-3, 1e-5, math.exp(-20.0)])
    def test_default_range_exact_map_exits_3(self, tmp_path, capsys, x):
        # corr11 cancels to noise at small x and large p (ROADMAP item 2):
        # the block at x has a negative diagonal entry
        cfg = write_config(tmp_path, "e.json", {
            "mode": "discord_map", "method": "exact", "map_points": [6, 6],
            "x": x, "cosmo": {"ellH": 0.1},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "BelowHeisenbergError"
        assert err["message"].startswith("diagonal entries must be positive")

    def test_non_finite_map_cell_exits_3(self, tmp_path, capsys):
        # exact_open_det overflows at p ~ 150: every cell read D = nan and
        # purity 0, and the run exited 0
        cfg = write_config(tmp_path, "e.json", {
            "mode": "discord_map", "method": "exact", "map_points": [2, 3], "x": 0.05,
            "cosmo": {"ellH": 0.1}, "p_range": [150.0, 180.0], "output_path": "e.csv"})
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "StepFailureError"
        assert not (tmp_path / "e.csv").exists()

    def test_non_finite_ellipse_exits_3(self, tmp_path, capsys):
        # semi_major and axis_ratio overflow to inf at n_sigma = 1.7e308, and
        # the run wrote them with exit 0
        cfg = write_config(tmp_path, "e.json", {
            "mode": "ellipse_series", "n_sigma": 1.7e308, "output_path": "e.csv",
            "grid": {"x_start": 10.0, "x_end": 0.1, "points": 3}})
        assert run_cli(["run", cfg, "--out", str(tmp_path)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "StepFailureError"
        assert not (tmp_path / "e.csv").exists()

    def test_overflow_reports_one_json_line(self, tmp_path):
        # the solver overflows; numpy and scipy warnings must not reach stderr
        cfg = write_config(tmp_path, "huge.json", {
            "mode": "evolve_open", "preset": "free", "source_const": 1e300,
            "grid": {"x_start": 5.0, "x_end": 1.0, "points": 5},
        })
        proc = subprocess.run(
            [sys.executable, "-m", "gausslind.cli", "run", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "StepFailureError"


    def test_transport_step_failure_reports_one_json_line(self, tmp_path):
        # a tolerance no Chebyshev tail meets from the e-fold phase on: its
        # first interval halves to its cap; no numpy warning may reach stderr
        cfg = write_config(tmp_path, "t.json", {
            "mode": "discord_map", "method": "transport", "map_points": [2, 2],
            "x": 3e-3, "cosmo": {"ellH": 0.15}})
        script = ("import sys; from gausslind import cosmology; "
                  "sub = cosmology._subhubble_response; "
                  "cosmology._subhubble_response = lambda *a: "
                  "(sub(*a), setattr(cosmology, 'TRANSPORT_RTOL', 1e-30))[0]; "
                  "from gausslind.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "run", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == "StepFailureError"
        assert "e-fold collocation" in err["message"] and "halvings" in err["message"]

    @pytest.mark.parametrize("preset", ["de_sitter", "free"])
    def test_rtol_below_floor_exits_2(self, tmp_path, preset):
        # solve_ivp would raise rtol 1e-15 to 100 eps with a UserWarning
        cfg = write_config(tmp_path, "tight.json", {
            "mode": "evolve_open", "preset": preset, "source_const": 0.05,
            "tolerances": {"rtol": 1e-15},
            "grid": {"x_start": 5.0, "x_end": 1.0, "points": 5},
            "output_path": "out.csv",
        })
        proc = subprocess.run(
            [sys.executable, "-m", "gausslind.cli", "run", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "ConfigError"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("where", ["out_under_file", "output_under_file", "output_is_dir"])
    def test_unwritable_output_exits_2(self, tmp_path, where):
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        out, output_path = {
            "out_under_file": (tmp_path / "afile" / "sub", "o.csv"),
            "output_under_file": (tmp_path, str(tmp_path / "afile" / "o.csv")),
            "output_is_dir": (tmp_path, "adir"),
        }[where]
        cfg = write_config(tmp_path, "c.json", {
            "mode": "evolve_closed", "output_path": output_path,
            "grid": {"x_start": 10.0, "x_end": 1.0, "points": 3}})
        proc = subprocess.run(
            [sys.executable, "-m", "gausslind.cli", "run", cfg, "--out", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"cannot write {str(out / output_path)!r}: ")


    @pytest.mark.parametrize("output_path", [5, ""], ids=["int", "empty"])
    @pytest.mark.parametrize("cfg", [
        {"mode": "evolve_closed", "grid": {"x_start": 10.0, "x_end": 1.0, "points": 3}},
        {"mode": "evolve_open", "preset": "free", "source_const": 0.05,
         "grid": {"x_start": 10.0, "x_end": 1.0, "points": 3}},
        {"mode": "discord_map", "map_points": [2, 2]},
        {"mode": "ellipse_series", "grid": {"x_start": 10.0, "x_end": 1.0, "points": 3}},
        {"mode": "spectrum", "points": 3,
         "cosmo": {"kGamma_over_kstar": 10.0, "p": 2.1, "ellH": 0.1}},
    ], ids=lambda cfg: cfg["mode"])
    def test_bad_output_path_exits_2(self, tmp_path, capsys, cfg, output_path):
        # a number raised TypeError; "" wrote the CSV as a file named by --out
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.json", dict(cfg, output_path=output_path))
        assert run_cli(["run", path, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert "output_path" in err["message"]
        assert not out.exists()


class TestSelfcheckMode:
    def test_selfcheck_as_config_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sc.json", {"mode": "selfcheck"})
        assert run_cli(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == len(CHECKS)

    def test_both_entry_points_map_errors_alike(self, tmp_path, capsys, monkeypatch):
        def broken():
            raise ValueError("injected")

        monkeypatch.setattr(selfcheck, "run_all", broken)
        cfg = write_config(tmp_path, "sc.json", {"mode": "selfcheck"})
        for argv in (["selfcheck"], ["run", cfg]):
            assert run_cli(argv) == 3
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1, argv
            assert json.loads(lines[0]) == {"error": "ValueError", "message": "injected"}


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mode": "evolve_closed",
            "grid": {"x_start": 10.0, "x_end": 1.0, "points": 3},
        })
        proc = subprocess.run(
            [sys.executable, "-m", "gausslind.cli", "run", cfg,
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0

    def test_parser_reused_across_calls(self, tmp_path, monkeypatch):
        """One parser serves every call of a process; each call's output
        equals a fresh process's and no argument carries over."""
        cfg = write_config(tmp_path, "c.json", {
            "mode": "discord_map", "map_points": [3, 4], "output_path": "m.csv"})
        fresh = tmp_path / "fresh"
        subprocess.run([sys.executable, "-m", "gausslind.cli", "run", cfg, "--out", str(fresh)],
                       check=True, timeout=60)
        want = (fresh / "m.csv").read_bytes()
        a, b, c = (tmp_path / d for d in "abc")

        def take(d):
            assert [f.name for f in d.iterdir()] == ["m.csv"]
            got = (d / "m.csv").read_bytes()
            (d / "m.csv").unlink()
            return got

        assert main(["run", cfg, "--out", str(a), "--threads", "3"]) == 0
        assert take(a) == want
        with pytest.raises(SystemExit) as exc:
            main(["run", cfg, "--out"])
        assert exc.value.code == 2
        assert main(["run", cfg, "--out", str(b)]) == 0
        assert take(b) == want
        c.mkdir()
        monkeypatch.chdir(c)
        assert main(["run", cfg]) == 0
        assert take(c) == want
        assert not any(a.iterdir()) and not any(b.iterdir())
        args = cli._parser().parse_args(["run", cfg])
        assert vars(args) == {"command": "run", "config": cfg, "out": ".", "threads": 1}
        assert cli._parser() is cli._parser()
