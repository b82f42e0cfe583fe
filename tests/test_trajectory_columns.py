"""Trajectory CSV rows, written by the CLI from columns, against the
per-row oracle."""

import json
import math

import numpy as np
import pytest

from conftest import random_block, trajectory_rows_oracle
from gausslind import cli
from gausslind.closed import CovarianceTrajectory
from gausslind.errors import BelowHeisenbergError, DegenerateSqueezingError
from gausslind.symplectic import CovarianceBlock, squeezing_from_covariance


def trajectory(rows, det=None):
    g11, g12, g22 = (np.array(c, dtype=float) for c in zip(*rows))
    det = np.ones(len(rows)) if det is None else np.asarray(det, dtype=float)
    return CovarianceTrajectory(np.arange(len(rows), dtype=float), g11, g12, g22, det)


def written_rows(tmp_path, monkeypatch, cfg, traj, open_run):
    """The data rows, as text values, that the evolve_open (open_run) or
    evolve_closed runner writes for `traj` on the grid of `cfg`."""
    monkeypatch.setattr(cli, "_evolve", lambda cfg, x_grid, source: traj)
    mode = "evolve_open" if open_run else "evolve_closed"
    path = tmp_path / f"{mode}.csv"
    cli.RUNNERS[mode](dict(cfg, mode=mode), path, "")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2].split(",") == cli.TRAJECTORY_HEADER + (
        ["sigma0", "n_pairs", "abs_c"] if open_run else [])
    return [line.split(",") for line in lines[3:]]


def assert_rows_equal(got, want):
    """Value for value, down to the CSV text of each value."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == [repr(float(v)) for v in w]


SCENARIOS = {
    "de_sitter_open": ({"cosmo": {"kGamma_over_kstar": 10.0, "p": 2.1, "ellH": 0.1},
                        "grid": {"x_start": 10.0, "x_end": 1e-3, "points": 200}}, True),
    "de_sitter_open_p61": ({"cosmo": {"kGamma_over_kstar": 3.0, "p": 6.1, "ellH": 0.2},
                            "grid": {"x_start": 5.0, "x_end": 2e-3, "points": 300}}, True),
    "de_sitter_closed": ({"grid": {"x_start": 10.0, "x_end": 0.01, "points": 150}}, False),
    "free_closed": ({"preset": "free",
                     "grid": {"x_start": 10.0, "x_end": 0.01, "points": 50}}, False),
    "free_open": ({"preset": "free", "source_const": 0.3,
                   "grid": {"x_start": 10.0, "x_end": 0.01, "points": 120}}, True),
}


def scenario_trajectory(cfg, open_run):
    x_grid = cli._grid(cfg)
    if not open_run:
        source = None
    elif "source_const" in cfg:
        source = lambda t: cfg["source_const"]
    else:
        source = cli.cosmo_kernel(cli._cosmo_params(cfg))
    return cli._evolve(cfg, x_grid, source), x_grid


class TestRowsMatchOracle:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario(self, tmp_path, monkeypatch, name):
        cfg, open_run = SCENARIOS[name]
        traj, x_grid = scenario_trajectory(cfg, open_run)
        got = written_rows(tmp_path, monkeypatch, cfg, traj, open_run)
        assert_rows_equal(got, trajectory_rows_oracle(traj, x_grid, open_run))

    def test_free_vacuum_rows_are_degenerate(self, tmp_path, monkeypatch):
        cfg, open_run = SCENARIOS["free_closed"]
        traj, _ = scenario_trajectory(cfg, open_run)
        rows = written_rows(tmp_path, monkeypatch, cfg, traj, open_run)
        assert all(float(row[4]) == 0.0 and float(row[5]) == 0.0 for row in rows)

    @pytest.mark.parametrize("open_run", [False, True])
    def test_edge_rows(self, tmp_path, monkeypatch, open_run):
        rows = [
            (1.0, 0.0, 1.0),          # vacuum: r = 0, degenerate
            (2.0, 0.0, 0.5),          # atan2(-0.0, < 0) = -pi: phi wraps to pi/2
            (2.0, -0.0, 0.5),         # atan2(+0.0, < 0) = +pi: phi = pi/2, no wrap
            (1.0 + 1e-17, 0.0, 1.0),  # rounds to the vacuum
            (1.0 + 4e-8, 0.0, 1.0 - 4e-8),  # r just above the floor
            (3.0, 1.2, 1.0),
            (1.5, -0.7, 2.5),
        ]
        traj = trajectory(rows, det=[1.0, 1.0, 1.0, 1.0, 1.0, 2.5, 4.0])
        cfg = {"preset": "free", "source_const": 0.1,
               "grid": {"x_start": 1.0, "x_end": 0.1, "points": len(rows)}}
        got = written_rows(tmp_path, monkeypatch, cfg, traj, open_run)
        assert_rows_equal(got, trajectory_rows_oracle(traj, cli._grid(cfg), open_run))
        r, phi, lam = traj.squeezing()
        assert r[0] == phi[0] == 0.0
        assert phi[1] == phi[2] == 0.5 * math.pi
        assert r[4] > 0.0
        assert lam.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0, 2.5, 4.0]

    def test_batch_trajectory_columns_per_member(self):
        rows = [(3.0, 1.2, 1.0), (1.0, 0.0, 1.0), (2.0, 0.0, 0.5), (1.5, -0.7, 2.5)]
        one = trajectory(rows, det=[2.0, 1.0, 1.0, 3.0])
        both = CovarianceTrajectory(one.times, *(np.stack([f, f[::-1]]) for f in
                                                 (one.g11, one.g12, one.g22, one.det)))
        for got, want in zip(both.squeezing(), one.squeezing()):
            assert got.shape == (2, len(rows))
            assert got[0].tolist() == want.tolist()
            assert got[1].tolist() == want[::-1].tolist()
        bad = CovarianceTrajectory(one.times, *(np.stack([f, f]) for f in
                                                (one.g11, one.g12, one.g22, one.det)))
        bad.g11[1, 2] = -1.0
        with pytest.raises(BelowHeisenbergError, match="-1.0"):
            bad.squeezing()

    def test_lam_is_transported_det_floored(self):
        traj = trajectory([(3.0, 1.2, 1.0)] * 3, det=[0.5, 1.0, 7.0])
        assert traj.squeezing()[2].tolist() == [1.0, 1.0, 7.0]


BAD_ROWS = {
    "g11_zero": (0.0, 0.0, 1.0),
    "g22_negative": (1.0, 0.0, -2.0),
    "nan_g12": (1.0, math.nan, 1.0),
    "inf_g11": (math.inf, 0.0, 1.0),
    "not_positive_definite": (1.0, 2.0, 1.0),
}


class TestInvalidRows:
    @pytest.mark.parametrize("name", sorted(BAD_ROWS))
    def test_raises_as_the_block_would(self, name):
        good = [(1.0, 0.0, 1.0), (3.0, 1.2, 1.0)]
        traj = trajectory(good + [BAD_ROWS[name], (1.0, 2.0, 1.0)] + good)
        with pytest.raises(BelowHeisenbergError) as want:
            CovarianceBlock(*BAD_ROWS[name])
        with pytest.raises(BelowHeisenbergError) as got:
            traj.squeezing()
        assert str(got.value) == str(want.value)

    def test_slack_within_the_construction_rule_passes(self):
        # det = -1e-7 of half_sum^2: inside CovarianceBlock's tolerance
        g = (1.0, math.sqrt(1.0 + 1e-7), 1.0)
        CovarianceBlock(*g)
        r, _, _ = trajectory([g]).squeezing()
        assert r[0] > 0.0

    @pytest.mark.parametrize("name", sorted(BAD_ROWS))
    def test_cli_exits_3(self, tmp_path, monkeypatch, capsys, name):
        bad = trajectory([(1.0, 0.0, 1.0), BAD_ROWS[name], (1.0, 0.0, 1.0)])
        monkeypatch.setattr(cli, "_evolve", lambda cfg, x_grid, source: bad)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "mode": "evolve_open", "source_const": 0.1, "preset": "free",
            "grid": {"x_start": 1.0, "x_end": 0.5, "points": 3}}))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "BelowHeisenbergError"
        assert not (tmp_path / "evolve_open.csv").exists()


class TestScalarIsOneColumn:
    def test_squeezing_from_covariance_equals_columns(self, rng):
        blocks = [random_block(rng, r_max=12.0, lam_max=1e4) for _ in range(300)]
        rows = [(b.g11, b.g12, b.g22) for b in blocks]
        r, phi, lam = trajectory(rows, det=[b.det for b in blocks]).squeezing()
        snapped = 0
        for i, b in enumerate(blocks):
            assert lam[i] == max(b.det, 1.0)
            try:
                s = squeezing_from_covariance(b)
            except DegenerateSqueezingError:
                assert r[i] == phi[i] == 0.0
                continue
            # the scalar reads b.lam, which is 1 where the det lies inside
            # the noise band; the columns read r from max(det, 1)
            if b.lam == max(b.det, 1.0):
                assert (s.r, s.phi, s.lam) == (r[i], phi[i], lam[i])
            else:
                snapped += 1
                assert (s.phi, s.lam) == (phi[i], 1.0) and s.r > r[i]
        assert 0 < snapped < len(blocks) // 2

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSqueezingError):
            squeezing_from_covariance(CovarianceBlock(1.0 + 1e-9, 0.0, 1.0 - 1e-9))
