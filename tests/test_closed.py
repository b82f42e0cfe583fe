import cmath
import math

import numpy as np
import pytest

from gausslind.closed import (
    BogoliubovPair,
    ModeFrequency,
    ModeState,
    bogoliubov_from_mode,
    covariance_from_bogoliubov,
    evolve_squeezing,
    integrate_mode_function,
    squeezing_rhs_closed,
    transport_rhs_closed,
    wigner_ellipse,
)
from gausslind.cosmology import (
    de_sitter_covariance_closed,
    de_sitter_frequency,
    de_sitter_mode,
    de_sitter_squeezing,
)
from gausslind.errors import DegenerateSqueezingError, StepFailureError
from gausslind.opensys import evolve_open

from conftest import third_order_residual
from gausslind.symplectic import (
    CovarianceBlock,
    ParticleStatistics,
    SqueezingState,
    covariance_from_squeezing,
)


class TestModeIntegration:
    def test_plane_wave(self):
        k = 2.0
        freq = ModeFrequency.free(k)
        traj = integrate_mode_function(freq, 0.0, 15.0, ModeState.vacuum(k, 0.0))
        for t in np.linspace(0.0, 15.0, 31):
            got = traj.state(float(t)).v
            want = cmath.exp(-1j * k * t)
            assert abs(got - want) < 1e-9

    def test_de_sitter_from_far_past(self):
        # starting at x = 1e3 with plane-wave data reproduces the closed
        # form up to a constant global phase (the closed form carries
        # e^{i x_in} at the start) and an O(1/x_in) truncation error
        freq = de_sitter_frequency()
        x_in = 1e3
        ic = ModeState.vacuum(1.0, -x_in)
        traj = integrate_mode_function(freq, -x_in, -0.1, ic)
        got = traj.state(-0.1)
        want = de_sitter_mode(0.1)
        ratio = got.v * cmath.exp(1j * x_in) / want.v
        assert abs(abs(ratio) - 1.0) < 2.0 / x_in
        assert abs(cmath.phase(ratio)) < 2.0 / x_in

    def test_de_sitter_matched_start_tight(self):
        freq = de_sitter_frequency()
        traj = integrate_mode_function(freq, -1e3, -0.1, de_sitter_mode(1e3))
        got = traj.state(-0.1)
        want = de_sitter_mode(0.1)
        assert abs(got.v - want.v) < 1e-8 * abs(want.v)

    def test_wronskian_drift(self):
        freq = de_sitter_frequency()
        traj = integrate_mode_function(freq, -100.0, -0.01, de_sitter_mode(100.0))
        for x in np.geomspace(100.0, 0.01, 25):
            assert traj.wronskian_drift(-float(x)) < 1e-9

    def test_non_finite_omega_sq_is_a_step_failure(self):
        freq = ModeFrequency(1.0, lambda k, t: math.nan if t > 1.0 else k * k)
        with pytest.raises(StepFailureError, match="omega"):
            integrate_mode_function(freq, 0.0, 2.0, ModeState.vacuum(1.0, 0.0))


class TestBogoliubov:
    def test_vacuum_data(self):
        pair = bogoliubov_from_mode(ModeState.vacuum(3.0, 0.0), 3.0)
        assert abs(pair.u - 1.0) < 1e-15
        assert abs(pair.w) < 1e-15

    def test_de_sitter_crossing(self):
        pair = bogoliubov_from_mode(de_sitter_mode(1.0), 1.0)
        assert abs(abs(pair.w) - 0.5) < 1e-14
        assert abs(abs(pair.u) - math.sqrt(1.25)) < 1e-14
        assert abs(pair.w - 0.5 * cmath.exp(-1j)) < 1e-14

    def test_normalization_identity(self):
        # the identity holds exactly in formula; the stored coefficients
        # carry eps*|u|^2 of representation noise (|u| ~ 1/(2x^2)), which
        # is what the tolerance tracks at deep squeezing
        for x, tol in ((10.0, 1e-13), (1.0, 1e-13), (0.01, 5e-8)):
            pair = bogoliubov_from_mode(de_sitter_mode(x), 1.0)
            assert abs(pair.normalization() - 1.0) < tol


class TestCovarianceFromBogoliubov:
    def test_vacuum(self):
        b = covariance_from_bogoliubov(BogoliubovPair(1.0 + 0.0j, 0.0j))
        assert (b.g11, b.g12, b.g22) == (1.0, 0.0, 1.0)

    def test_de_sitter_crossing(self):
        b = covariance_from_bogoliubov(bogoliubov_from_mode(de_sitter_mode(1.0), 1.0))
        want = de_sitter_covariance_closed(1.0)
        assert abs(b.g11 - want.g11) < 1e-13
        assert abs(b.g12 - want.g12) < 1e-13
        assert abs(b.g22 - want.g22) < 1e-13

    def test_vacuum_initial_state_stays_pure(self, rng):
        for _ in range(25):
            r = rng.uniform(0.0, 2.0)
            th, ph = rng.uniform(-3, 3, 2)
            u = cmath.exp(-1j * th) * math.cosh(r)
            w = -cmath.exp(1j * (th + 2 * ph)) * math.sinh(r)
            b = covariance_from_bogoliubov(BogoliubovPair(u, w))
            assert abs(b.det - 1.0) < 1e-11 * max(1.0, b.g22)

    def test_general_initial_state_matmul_oracle(self, rng):
        # independent route: the 2x2 linear map on (v, p) quadratures
        for _ in range(25):
            r = rng.uniform(0.0, 2.0)
            th, ph = rng.uniform(-3, 3, 2)
            u = cmath.exp(-1j * th) * math.cosh(r)
            w = -cmath.exp(1j * (th + 2 * ph)) * math.sinh(r)
            n = rng.uniform(0.0, 3.0)
            cmag = math.sqrt(n * (n + 1.0)) * rng.uniform(0.0, 0.99)
            c = cmag * cmath.exp(1j * rng.uniform(-3, 3))
            init = ParticleStatistics(n, c)
            got = covariance_from_bogoliubov(BogoliubovPair(u, w), init)

            tmap = np.array([
                [(u + w).real, -(u - w).imag],
                [(u + w).imag, (u - w).real],
            ])
            g_in = np.array([
                [2 * n + 1 + 2 * c.real, 2 * c.imag],
                [2 * c.imag, 2 * n + 1 - 2 * c.real],
            ])
            want = tmap @ g_in @ tmap.T
            assert abs(got.g11 - want[0, 0]) < 1e-11 * max(1, abs(want[0, 0]))
            assert abs(got.g12 - want[0, 1]) < 1e-11 * max(1, abs(want[0, 1]))
            assert abs(got.g22 - want[1, 1]) < 1e-11 * max(1, abs(want[1, 1]))


class TestTransportEngine:
    def test_vacuum_stationary_free_oscillator(self):
        freq = ModeFrequency.free(1.7)
        d = transport_rhs_closed(CovarianceBlock.vacuum(), freq, 0.0)
        assert d == (0.0, 0.0, 0.0)

    def test_determinant_conserved_algebraically(self, rng):
        freq = ModeFrequency(1.3, lambda k, t: k * k * (1.0 + 0.3 * math.sin(t)))
        for _ in range(20):
            g11, g22 = rng.uniform(0.5, 5.0, 2)
            g12 = rng.uniform(-1.0, 1.0)
            d11, d12, d22 = transport_rhs_closed((g11, g12, g22), freq, rng.uniform(0, 5))
            ddet = d11 * g22 + g11 * d22 - 2.0 * g12 * d12
            assert abs(ddet) < 1e-12 * max(g11, g22)

    def test_de_sitter_against_closed_form(self):
        xg = np.geomspace(100.0, 0.1, 21)
        traj = evolve_open(de_sitter_frequency(), None, (-100.0, -0.1),
                           ic=de_sitter_covariance_closed(100.0), t_eval=-xg)
        for i, x in enumerate(xg):
            want = de_sitter_covariance_closed(float(x))
            for got, ref in ((traj.g11[i], want.g11), (traj.g12[i], want.g12),
                             (traj.g22[i], want.g22)):
                assert abs(got - ref) < 1e-6 * abs(ref)

    def test_closed_form_solves_transport(self):
        # residual of the closed forms in the transport equations
        freq = de_sitter_frequency()
        h = 1e-5
        for x in (5.0, 1.0, 0.3):
            d = transport_rhs_closed(de_sitter_covariance_closed(x), freq, -x)
            num = [
                (de_sitter_covariance_closed(x - h).g11
                 - de_sitter_covariance_closed(x + h).g11) / (2 * h),
                (de_sitter_covariance_closed(x - h).g12
                 - de_sitter_covariance_closed(x + h).g12) / (2 * h),
                (de_sitter_covariance_closed(x - h).g22
                 - de_sitter_covariance_closed(x + h).g22) / (2 * h),
            ]
            for a, b in zip(d, num):
                assert abs(a - b) < 1e-7 * max(1.0, abs(a))

    def test_third_order_residual_diagnostic(self):
        freq = de_sitter_frequency()
        g11 = lambda t: de_sitter_covariance_closed(-t).g11
        for t in (-3.0, -1.0, -0.5):
            # the residual must vanish relative to the individual ODE
            # terms (|4 w g11'| ~ 1/x^5); the step balances truncation
            # against eps/h^3 rounding of the third difference
            scale = max(1.0, 4.0 * abs(freq.ratio(t)) * 2.0 / abs(t) ** 3)
            resid = third_order_residual(g11, freq, t, h=3e-4)
            assert abs(resid) < 1e-5 * scale


class TestSqueezingEngine:
    def test_no_growth_without_mixing(self):
        freq = ModeFrequency.free(1.0)
        dr, _ = squeezing_rhs_closed(0.5, 0.0, freq, 0.0)
        assert dr == 0.0

    def test_r_floor(self):
        with pytest.raises(DegenerateSqueezingError):
            squeezing_rhs_closed(1e-7, 0.1, ModeFrequency.free(1.0), 0.0)

    def test_growth_sign_super_hubble(self):
        freq = de_sitter_frequency()
        for x in (0.5, 0.1):
            r, phi = de_sitter_squeezing(x)
            dr, _ = squeezing_rhs_closed(r, phi, freq, -x)
            assert dr > 0.0

    def test_de_sitter_against_closed_form(self):
        freq = de_sitter_frequency()
        xg = np.geomspace(100.0, 0.05, 31)
        r0, phi0 = de_sitter_squeezing(100.0)
        _, rr, pp = evolve_squeezing(freq, (-100.0, -0.05), (r0, phi0), t_eval=-xg)
        for i, x in enumerate(xg):
            r_want, phi_want = de_sitter_squeezing(float(x))
            assert abs(rr[i] - r_want) < 1e-6 * max(1.0, r_want)
            assert abs(pp[i] - phi_want) < 1e-6


class TestThreeEngineAgreement:
    def test_generic_smooth_frequency(self):
        # omega^2 sweeps through zero: k^2 (1 - 2.5 sin^2 t)
        k = 1.0
        freq = ModeFrequency(k, lambda kk, t: kk * kk * (1.0 - 2.5 * math.sin(t) ** 2))
        t0, t1 = 0.0, 6.0
        ts = np.linspace(0.5, t1, 12)

        mt = integrate_mode_function(freq, t0, t1, ModeState.vacuum(k, t0))
        ct = evolve_open(freq, None, (t0, t1), t_eval=ts)

        # seed the squeezing engine once r is measurably nonzero
        t_seed = 0.5
        b_seed = covariance_from_bogoliubov(bogoliubov_from_mode(mt.state(t_seed), k))
        from gausslind.symplectic import squeezing_from_covariance
        s_seed = squeezing_from_covariance(b_seed)
        _, rr, pp = evolve_squeezing(freq, (t_seed, t1), (s_seed.r, s_seed.phi), t_eval=ts)

        for i, t in enumerate(ts):
            b_mode = covariance_from_bogoliubov(bogoliubov_from_mode(mt.state(float(t)), k))
            b_trans = ct.block(i)
            b_sq = covariance_from_squeezing(SqueezingState(rr[i], pp[i], 1.0))
            for ga, gb, gc in zip(
                (b_mode.g11, b_mode.g12, b_mode.g22),
                (b_trans.g11, b_trans.g12, b_trans.g22),
                (b_sq.g11, b_sq.g12, b_sq.g22),
            ):
                scale = max(abs(ga), 1.0)
                assert abs(ga - gb) < 1e-6 * scale
                assert abs(ga - gc) < 1e-6 * scale


class TestWignerEllipse:
    def test_unit_squeezed(self):
        ell = wigner_ellipse(SqueezingState(1.0, math.pi / 4, 1.0))
        assert abs(ell.semi_major - math.e) < 1e-14
        assert abs(ell.semi_minor - 1.0 / math.e) < 1e-14
        assert ell.tilt == math.pi / 4

    def test_vacuum_circle(self):
        ell = wigner_ellipse(SqueezingState(0.0, 0.7, 1.0))
        assert ell.semi_major == ell.semi_minor == 1.0
        assert abs(ell.area - math.pi) < 1e-14

    def test_axis_product_independent_of_r(self):
        for lam in (1.0, 5.0, 100.0):
            for r in (0.0, 1.0, 10.0):
                ell = wigner_ellipse(SqueezingState(r, 0.1, lam))
                assert abs(ell.semi_major * ell.semi_minor - math.sqrt(lam)) \
                    < 1e-12 * math.sqrt(lam)

    def test_contour_scaling(self):
        one = wigner_ellipse(SqueezingState(0.5, 0.0, 1.0), n_sigma=1.0)
        two = wigner_ellipse(SqueezingState(0.5, 0.0, 1.0), n_sigma=2.0)
        assert abs(two.semi_major - 2.0 * one.semi_major) < 1e-14
        assert abs(two.area - 4.0 * one.area) < 1e-14
