"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured figure of merit when it holds.  Criteria 1, 2, 5 and 9
are the checks of `gausslind selfcheck`, run here with the same grids."""

import math
import subprocess
import sys
import time

import numpy as np

from gausslind import selfcheck
from gausslind.closed import ModeFrequency
from gausslind.cosmology import (
    CosmoParams,
    asymptotic_coefficients,
    cosmo_kernel,
    de_sitter_mode,
    discord_cosmo,
    evolve_de_sitter,
    exact_open_covariance,
    power_spectrum_correction,
    sigma0_sq_coefficients,
    sigma0_sq_approx,
    PsRegime,
)
from gausslind.opensys import evolve_open, piecewise_oscillatory_quad
from gausslind.symplectic import particle_statistics

from conftest import super_hubble_series

LN2 = math.log(2.0)

FIG_SETS = (
    CosmoParams(kGamma_over_kstar=10.0, p=2.1, ellH=0.1),
    CosmoParams(kGamma_over_kstar=10.0, p=6.1, ellH=0.1),
)


def report(n, detail):
    print(f"\n[PASS] criterion {n}: {detail}")


def test_criterion_01_cross_engine_closed_evolution():
    t0 = time.perf_counter()
    _, ok, detail = selfcheck.check_closed_engines()
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    report(1, f"three engines against the closed forms: {detail}, "
              f"runtime {elapsed:.2f}s")


def test_criterion_02_discord_baseline():
    _, ok, detail = selfcheck.check_discord_baseline()
    assert ok, detail
    report(2, f"1000 random and 3 snapped states at theta = 0, pure states for r in [0, 30]: {detail}")


def test_criterion_03_de_sitter_discord_slope():
    params = CosmoParams(kGamma_over_kstar=0.0, p=2.5, ellH=0.1)
    xs = np.geomspace(1e-4, 1e-6, 9)
    ds = [discord_cosmo(float(x), -math.pi / 4, params, "approx").discord
          for x in xs]
    # D is linear in ln a = -ln x on super-Hubble scales
    slope, _ = np.polyfit(-np.log(xs), ds, 1)
    want = 4.0 / LN2
    assert abs(slope - want) / want < 0.01, f"slope {slope} vs {want}"
    extrapolated = slope * 50.0
    assert abs(extrapolated - 288.5) < 3.0, f"50-efold extrapolation {extrapolated}"
    report(3, f"dD/dln(a) = {slope:.4f} (4/ln2 = {want:.4f}); "
              f"50 e-folds -> {extrapolated:.1f} bits")


def test_criterion_04_exact_covariance_against_quadrature_and_transport():
    t0 = time.perf_counter()
    worst_quad = 0.0
    worst_transport = 0.0
    for params in FIG_SETS:
        kap2 = params.kGamma_over_kstar ** 2
        hi = params.x_coupling_on
        traj = evolve_de_sitter(hi, 0.01, cosmo_kernel(params), x_eval=(0.5, 0.1, 0.01))
        for i, x in enumerate((0.5, 0.1, 0.01)):
            mode = de_sitter_mode(x)

            def weight(xp):
                return 2.0 * kap2 * (1.0 / xp) ** (params.p - 3.0)

            def imv(xp, m=mode):
                return (de_sitter_mode(xp).v * m.v.conjugate()).imag

            def imdv(xp, m=mode):
                return (de_sitter_mode(xp).v * m.dv.conjugate()).imag

            I, _ = piecewise_oscillatory_quad(
                lambda xp: weight(xp) * imv(xp) ** 2, x, hi, math.pi / 2, 1e-12)
            J, _ = piecewise_oscillatory_quad(
                lambda xp: weight(xp) * imv(xp) * imdv(xp), x, hi, math.pi / 2, 1e-12)
            K, _ = piecewise_oscillatory_quad(
                lambda xp: weight(xp) * imdv(xp) ** 2, x, hi, math.pi / 2, 1e-12)
            want = np.array([abs(mode.v) ** 2 + I,
                             (mode.v * mode.dv.conjugate()).real + J,
                             abs(mode.dv) ** 2 + K])
            got = exact_open_covariance(x, params)
            gvec = np.array([got.g11, got.g12, got.g22])
            worst_quad = max(worst_quad, float(np.abs(gvec / want - 1.0).max()))
            tvec = np.array([traj.g11[i], traj.g12[i], traj.g22[i]])
            worst_transport = max(worst_transport,
                                  float(np.abs(tvec / gvec - 1.0).max()))
    elapsed = time.perf_counter() - t0
    assert worst_quad < 1e-6, f"closed form vs quadrature {worst_quad}"
    assert worst_transport < 1e-4, f"transport vs closed form {worst_transport}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    report(4, f"closed forms vs quadrature {worst_quad:.2e}, vs transport "
              f"{worst_transport:.2e}, runtime {elapsed:.1f}s")


def test_criterion_05_coefficient_identities():
    _, ok, detail = selfcheck.check_coefficient_identities()
    assert ok, detail
    report(5, f"super-Hubble coefficient table: {detail}")


def test_criterion_06_sigma_zero_consistency():
    # (a) coefficient table vs closed-form power-law combinations
    worst_identity = 0.0
    for params in FIG_SETS:
        p = params.p
        s0_2, _, sx_2, _, _ = sigma0_sq_coefficients(
            asymptotic_coefficients(params), params.kGamma_over_kstar ** 2)
        kap2 = params.kGamma_over_kstar ** 2
        want_sx = kap2 * 2.0 / (p - 2.0)
        want_s0 = -2.0 * kap2 * (params.ellH ** (p - 4.0) / (p - 4.0)
                                 + params.ellH ** (p - 2.0) / (p - 2.0))
        worst_identity = max(worst_identity,
                             abs(sx_2 / want_sx - 1.0), abs(s0_2 / want_s0 - 1.0))
    assert worst_identity < 1e-10, f"Sigma coefficient identity {worst_identity}"

    # (b) matches the transported determinant at x = 1e-3 to 5%
    worst_det = 0.0
    for params in FIG_SETS:
        traj = evolve_de_sitter(params.x_coupling_on, 1e-3, cosmo_kernel(params),
                                rtol=1e-12, atol=1e-13)
        got = sigma0_sq_approx(1e-3, params)
        worst_det = max(worst_det, abs(got / traj.det[-1] - 1.0))
    assert worst_det < 0.05, f"sigma0^2 vs transport determinant {worst_det}"

    # (c) the x^{-6} .. x^{-1} cancellations, by symbolic assembly
    import sympy as sp

    params = FIG_SETS[0]
    t = super_hubble_series(asymptotic_coefficients(params))
    kap2 = params.kGamma_over_kstar ** 2
    x, y = sp.symbols("x y", positive=True)
    corr11 = (y * t.a11 * x ** 6 + t.b11 / x ** 2 + t.c11 + t.d11 * x
              + t.e11 * x ** 3 + t.f11 * x ** 4 + t.g11 * x ** 5 + t.h11 * x ** 6)
    corr12 = (y * t.a12 * x ** 5 + t.b12 / x ** 3 + t.c12 + t.d12 * x ** 2
              + t.e12 * x ** 3 + t.f12 * x ** 4 + t.g12 * x ** 5 + t.h12 * x ** 6)
    corr22 = (y * t.a22 * x ** 4 + t.b22 / x ** 4 + t.c22 / x ** 2 + t.d22 / x
              + t.e22 + t.f22 * x + t.g22 * x ** 2 + t.h22 * x ** 3
              + t.i22 * x ** 4 + t.j22 * x ** 5 + t.k22 * x ** 6)
    det = sp.expand(((1 + x ** 2) / x ** 2 - 2 * kap2 * corr11)
                    * ((x ** 4 - x ** 2 + 1) / x ** 4 - 2 * kap2 * corr22)
                    - (1 / x ** 3 - 2 * kap2 * corr12) ** 2)
    poly = sp.Poly(sp.expand(det * x ** 8), x, y)
    scale = max(abs(t.b11), abs(t.d11), 1.0) ** 2 * max(kap2, kap2 ** 2)
    worst_cancel = max(
        abs(float(poly.coeff_monomial(x ** (n + 8) * y ** 0)))
        for n in range(-6, 0))
    assert worst_cancel < 1e-9 * scale, f"power cancellation residual {worst_cancel}"
    # the surviving powers against the closed-form Sigma terms
    s0_2, s0_4, sx_2, sx_4, sxx_4 = sigma0_sq_coefficients(
        asymptotic_coefficients(params), kap2)
    for (nx, ny), want in (((8, 0), 1.0 + s0_2 + s0_4), ((10, 1), sx_2 + sx_4),
                           ((18, 2), sxx_4)):
        got = float(poly.coeff_monomial(x ** nx * y ** ny))
        assert abs(got - want) < 1e-9 * scale, f"x^{nx - 8} y^{ny}: {got} vs {want}"
    report(6, f"Sigma identities {worst_identity:.2e}; transport determinant "
              f"match {worst_det:.2%}; cancellations {worst_cancel:.2e}")


def test_criterion_07_discord_p_threshold():
    t0 = time.perf_counter()
    slopes = {}
    for p in (5.5, 6.5):
        params = CosmoParams(kGamma_over_kstar=1e-2, p=p, ellH=1e-3)
        x0 = math.exp(-20.0)
        d1 = discord_cosmo(x0, -math.pi / 4, params, "approx").discord
        d2 = discord_cosmo(x0 / math.e, -math.pi / 4, params, "approx").discord
        slopes[p] = math.log(d2) - math.log(d1)  # dlnD / dln a
    elapsed = time.perf_counter() - t0
    assert slopes[5.5] > 0.0, f"p=5.5 slope {slopes[5.5]}"
    assert slopes[6.5] < 0.0, f"p=6.5 slope {slopes[6.5]}"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s"
    report(7, f"dlnD/dln(a) = {slopes[5.5]:+.3f} at p=5.5, "
              f"{slopes[6.5]:+.3f} at p=6.5, runtime {elapsed:.1f}s")


def test_criterion_08_power_spectrum():
    # p = 5: scale invariant
    vals = [power_spectrum_correction(
        CosmoParams(0.1, 5.0, 0.01), k).value
        for k in np.geomspace(1e-2, 1e2, 9)]
    spread = (max(vals) - min(vals)) / abs(vals[0])
    assert spread < 1e-10, f"p=5 spread {spread}"

    # closed forms vs the independent leading-coefficient route; ellH
    # small enough that the piecewise forms' dropped (ellH)^(p-4) pieces
    # are genuinely subleading
    worst = 0.0
    for p in (2.5, 3.0001, 4.5, 6.5, 7.3):
        params = CosmoParams(0.1, p, 1e-3)
        want = -2.0 * params.kGamma_over_kstar ** 2 \
            * asymptotic_coefficients(params).b11
        got = power_spectrum_correction(params).value
        worst = max(worst, abs(got / want - 1.0))
    assert worst < 0.10, f"piecewise forms vs coefficient route {worst}"

    corr = power_spectrum_correction(CosmoParams(0.1, 9.0, 0.01))
    assert corr.regime is PsRegime.P_GT_8 and corr.time_dependent
    report(8, f"p=5 k-spread {spread:.1e}; piecewise vs coefficient route "
              f"within {worst:.1%}; p>8 growing mode flagged")


def test_criterion_09_special_functions():
    _, ok, detail = selfcheck.check_special_functions()
    assert ok, detail
    report(9, f"incomplete gamma against quadrature: {detail}")


def test_criterion_10_purity_monotonicity():
    rng = np.random.default_rng(2024)
    worst_id = 0.0
    for _ in range(100):
        k = rng.uniform(0.5, 2.0)
        a_mod = rng.uniform(0.0, 0.8)
        phase = rng.uniform(0.0, 6.0)
        freq = ModeFrequency(
            k, lambda kk, t, a=a_mod, c=phase: kk * kk * (1.0 + a * math.sin(t + c)))
        s0 = rng.uniform(0.0, 0.5)
        kern = lambda t, s=s0: s * (1.0 + math.cos(t) ** 2)
        traj = evolve_open(freq, kern, (0.0, 6.0),
                           t_eval=np.linspace(0.0, 6.0, 16),
                           rtol=1e-12, atol=1e-14)
        pur = traj.purity
        assert np.all(pur <= 1.0 + 1e-12)
        assert np.all(np.diff(pur) <= 1e-10), "purity increased"
        for i in (0, 7, 15):
            b = traj.block(i)
            stats = particle_statistics(b)
            lhs = 4.0 * abs(stats.c) ** 2
            rhs = (2.0 * stats.n + 1.0) ** 2 - traj.det[i]
            worst_id = max(worst_id, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst_id < 1e-10, f"occupation identity residual {worst_id}"
    report(10, f"purity non-increasing on 100 random open runs; "
               f"occupation identity residual {worst_id:.2e}")


def test_criterion_11_selfcheck_command():
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gausslind.cli", "selfcheck"],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30.0, f"selfcheck took {elapsed:.1f}s"
    lines = [l for l in proc.stdout.splitlines() if l.startswith("[")]
    assert len(lines) == len(selfcheck.CHECKS) and all(l.startswith("[PASS]") for l in lines)
    report(11, f"selfcheck exit 0 in {elapsed:.1f}s "
               f"({len(lines)} checks reported)")
