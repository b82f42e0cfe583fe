import functools
import math
import signal
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from gausslind import specfun
from gausslind.closed import wigner_ellipse
from gausslind.cosmology import (
    APPROX_X_MAX,
    CosmoParams,
    PsRegime,
    _approx_terms,
    _kap2_row,
    approx_open_covariance,
    asymptotic_coefficients,
    cosmo_kernel,
    de_sitter_covariance_closed,
    de_sitter_mode,
    de_sitter_squeezing,
    decoherence_threshold,
    discord_cosmo,
    evolve_de_sitter,
    exact_open_covariance,
    exact_open_det,
    offset_singular_p,
    omega_sq_de_sitter,
    power_spectrum_correction,
    sigma0_sq_approx,
    sigma0_sq_coefficients,
)
from gausslind.discord import _discord_from_logs, entropy_kernel
from gausslind.errors import (
    BelowHeisenbergError,
    DomainError,
    SingularExponentError,
    StepFailureError,
)
from gausslind.symplectic import CovarianceBlock, SqueezingState, sigma_theta

from conftest import count_rhs_calls, default_map, record_intervals, super_hubble_series
import oracle

FIG_PARAMS = {
    2.1: CosmoParams(kGamma_over_kstar=10.0, p=2.1, ellH=0.1),
    6.1: CosmoParams(kGamma_over_kstar=10.0, p=6.1, ellH=0.1),
}


class TestFreeDeSitter:
    def test_frequency(self):
        assert omega_sq_de_sitter(1.0, -1.0) == -1.0
        assert abs(omega_sq_de_sitter(2.0, -1e6) - 4.0) < 1e-8
        # sign change at k|eta| = sqrt(2)
        assert abs(omega_sq_de_sitter(1.0, -math.sqrt(2.0))) < 1e-15
        with pytest.raises(DomainError):
            omega_sq_de_sitter(1.0, 0.5)

    def test_mode_function(self):
        assert abs(abs(de_sitter_mode(1e6).v) - 1.0) < 1e-6
        assert abs(abs(de_sitter_mode(1.0).v) ** 2 - 2.0) < 1e-14
        for x in (100.0, 1.0):
            assert abs(de_sitter_mode(x).wronskian() - 2j) < 1e-13
        # products reach ~1/x^3 before cancelling to 2, hence the floor
        assert abs(de_sitter_mode(0.01).wronskian() - 2j) < 1e-10

    def test_covariance(self):
        b = de_sitter_covariance_closed(1.0)
        assert (b.g11, b.g12, b.g22) == (2.0, 1.0, 1.0)
        assert abs(b.det - 1.0) < 1e-15
        far = de_sitter_covariance_closed(1e8)
        assert abs(far.g11 - 1.0) < 1e-15 and abs(far.g22 - 1.0) < 1e-15

    def test_squeezing_values(self):
        r, phi = de_sitter_squeezing(1.0)
        assert abs(r - 0.5 * math.acosh(1.5)) < 1e-14

    @pytest.mark.parametrize("x", [1e-30, 1e-40, 1e-100, 1e-300])
    def test_squeezing_deep_super_hubble(self, x):
        # r was inf below x ~ 2.5e-39 and x ** 4 divided by zero below 1e-81
        with mp.workdps(40):
            want = mp.acosh(1 + 1 / (2 * mp.mpf(x) ** 4)) / 2
        r, _ = de_sitter_squeezing(x)
        assert abs(r / float(want) - 1.0) < 4e-16
        r_far, phi_far = de_sitter_squeezing(1e4)
        assert r_far < 1e-8
        assert abs(phi_far + math.pi / 2) < 1e-3
        r_late, phi_late = de_sitter_squeezing(1e-4)
        assert abs(r_late + 2.0 * math.log(1e-4)) < 1e-2 * abs(r_late)
        assert abs(phi_late + 1e-4) < 1e-9

    def test_squeezing_angle_branch(self):
        # continuous across x = 1/sqrt(2), sin(2 phi) < 0 everywhere
        xs = np.geomspace(100.0, 1e-3, 400)
        phis = np.array([de_sitter_squeezing(float(x))[1] for x in xs])
        assert np.all(np.sin(2.0 * phis) < 0.0)
        assert np.abs(np.diff(phis)).max() < 0.15
        lo = de_sitter_squeezing(1.0 / math.sqrt(2.0) * (1 - 1e-9))[1]
        hi = de_sitter_squeezing(1.0 / math.sqrt(2.0) * (1 + 1e-9))[1]
        assert abs(hi - lo) < 1e-6

    def test_closed_covariance_is_pure_squeezed(self):
        for x in (3.0, 1.0, 0.4):
            r, phi = de_sitter_squeezing(x)
            from gausslind.symplectic import SqueezingState, covariance_from_squeezing
            b = covariance_from_squeezing(SqueezingState(r, phi, 1.0))
            want = de_sitter_covariance_closed(x)
            assert abs(b.g11 - want.g11) < 1e-12 * want.g11
            assert abs(b.g12 - want.g12) < 1e-11 * max(abs(want.g12), 1.0)
            assert abs(b.g22 - want.g22) < 1e-11 * want.g22


class TestKernel:
    def test_heaviside_window(self):
        params = FIG_PARAMS[2.1]
        kern = cosmo_kernel(params)
        assert kern(-11.0) == 0.0  # x = 11 > 1/ellH = 10
        assert kern(-9.9) > 0.0
        assert kern(-10.1) == 0.0

    def test_time_independent_at_p3(self):
        params = CosmoParams(kGamma_over_kstar=2.0, p=3.0, ellH=0.1)
        vals = {cosmo_kernel(params)(-x) for x in (0.3, 1.0, 5.0)}
        assert max(vals) - min(vals) < 1e-14

    def test_hand_value(self):
        params = FIG_PARAMS[2.1]
        got = cosmo_kernel(params)(-0.5)
        want = 2.0 * 100.0 * (1.0 / 0.5) ** (2.1 - 3.0)
        assert abs(got - want) < 1e-14 * want

    @pytest.mark.parametrize("p,kg,ellH", [(2.1, 10.0, 0.1), (6.1, 0.3, 0.15),
                                           (9.3, 1e-4, 0.05)])
    def test_kernel_is_the_one_cell_plane(self, p, kg, ellH):
        # the scalar source is kap2 times the unit amplitude of a one-cell
        # transport plane, one power law; only the scalar source has the
        # window
        from gausslind.cosmology import _power_law
        params = CosmoParams(kg, p, ellH)
        scalar = cosmo_kernel(params)
        kap2 = params.kGamma_over_kstar ** 2
        etas = np.linspace(-1.0 / ellH, 0.0, 401)[1:-1].tolist()
        for eta in etas:
            assert scalar(eta) == kap2 * _power_law(p - 3.0, -eta)
        assert scalar(-1.0 / ellH) == 0.0 < _power_law(p - 3.0, 1.0 / ellH)


class TestExactOpenCovariance:
    def test_zero_coupling_recovers_closed(self):
        params = CosmoParams(kGamma_over_kstar=0.0, p=2.1, ellH=0.1)
        for x in (0.5, 0.05):
            got = exact_open_covariance(x, params)
            want = de_sitter_covariance_closed(x)
            assert abs(got.g11 - want.g11) < 1e-12 * want.g11
            assert abs(got.g22 - want.g22) < 1e-12 * want.g22

    @pytest.mark.parametrize("p", [2.1, 6.1])
    @pytest.mark.parametrize("x", [0.5, 0.1, 0.01])
    def test_against_oscillatory_quadrature(self, p, x):
        # brute-force the Green's-function integrals in x' (half-period
        # subdivided adaptive quadrature) and assemble the covariance
        params = FIG_PARAMS[p]
        kap2 = params.kGamma_over_kstar ** 2
        mode = de_sitter_mode(x)

        def weight(xp):
            return 2.0 * kap2 * (1.0 / xp) ** (params.p - 3.0)

        def imv(xp):
            return (de_sitter_mode(xp).v * mode.v.conjugate()).imag

        def imdv(xp):
            return (de_sitter_mode(xp).v * mode.dv.conjugate()).imag

        from gausslind.opensys import piecewise_oscillatory_quad
        hi = params.x_coupling_on
        I, _ = piecewise_oscillatory_quad(
            lambda xp: weight(xp) * imv(xp) ** 2, x, hi, math.pi / 2, epsrel=1e-12)
        J, _ = piecewise_oscillatory_quad(
            lambda xp: weight(xp) * imv(xp) * imdv(xp), x, hi, math.pi / 2, epsrel=1e-12)
        K, _ = piecewise_oscillatory_quad(
            lambda xp: weight(xp) * imdv(xp) ** 2, x, hi, math.pi / 2, epsrel=1e-12)
        want = (abs(mode.v) ** 2 + I,
                (mode.v * mode.dv.conjugate()).real + J,
                abs(mode.dv) ** 2 + K)
        got = exact_open_covariance(x, params)
        for a, b in zip((got.g11, got.g12, got.g22), want):
            assert abs(a - b) < 1e-6 * abs(b)

    @pytest.mark.parametrize("p", [2.1, 6.1])
    def test_against_transport(self, p):
        params = FIG_PARAMS[p]
        xs = (0.5, 0.1, 0.01)
        traj = evolve_de_sitter(params.x_coupling_on, 0.01, cosmo_kernel(params), x_eval=xs)
        for i, x in enumerate(xs):
            want = exact_open_covariance(float(x), params)
            for a, b in ((traj.g11[i], want.g11), (traj.g12[i], want.g12),
                         (traj.g22[i], want.g22)):
                assert abs(a - b) < 1e-4 * abs(b)

    def test_singular_exponents_rejected(self):
        with pytest.raises(SingularExponentError):
            exact_open_covariance(0.1, CosmoParams(1.0, 2.0, 0.1))
        with pytest.raises(SingularExponentError):
            exact_open_covariance(0.1, CosmoParams(1.0, 4.0, 0.1))

    def test_outside_coupled_window_rejected(self):
        with pytest.raises(DomainError):
            exact_open_covariance(11.0, FIG_PARAMS[2.1])


class TestExactRow:
    """exact_open_det over a row of couplings shares the coupling-free
    terms of each quadrature node; every number equals a scalar call."""

    # p = 9.3, x = 0.03, ellH = 0.09: the last three couplings emit
    # IntegrationWarning and need about three times the nodes of the first
    X, ELLH = 0.03, 0.09
    COUPLINGS = np.array([1e-3, 0.1, 3.0, 20.0])

    @staticmethod
    def _gamma_calls(monkeypatch, run) -> int:
        calls = []
        gamma = specfun.upper_incomplete_gamma
        monkeypatch.setattr(specfun, "upper_incomplete_gamma",
                            lambda a, z: calls.append(1) or gamma(a, z))
        specfun._lower_limit_gamma.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            run()
        monkeypatch.undo()
        return len(calls)

    def test_row_shares_gamma_work(self, monkeypatch):
        params = CosmoParams(0.0, 9.3, self.ELLH)
        row = self._gamma_calls(monkeypatch, lambda: discord_cosmo(
            self.X, -0.4, params, "exact", kGamma_over_kstar=self.COUPLINGS))
        single = max(self._gamma_calls(monkeypatch, lambda: discord_cosmo(
            self.X, -0.4, params, "exact", kGamma_over_kstar=kg))
            for kg in self.COUPLINGS.tolist())
        assert row <= 1.5 * single

    @pytest.mark.parametrize("p", [0.5, 2.1, 6.1, 9.3, 9.8])
    def test_row_equals_scalar_calls(self, p):
        params = CosmoParams(0.0, p, self.ELLH)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            row = discord_cosmo(self.X, -0.4, params, "exact",
                                kGamma_over_kstar=self.COUPLINGS)
            dets = exact_open_det(self.X, params, kGamma_over_kstar=self.COUPLINGS)
        for j, kg in enumerate(self.COUPLINGS.tolist()):
            cell = CosmoParams(kg, p, self.ELLH)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                one = discord_cosmo(self.X, -0.4, cell, "exact")
                det = exact_open_det(self.X, cell)
            assert row.discord[j] == one.discord
            assert row.log_sigma_theta[j] == one.log_sigma_theta
            assert row.log_sigma_zero[j] == one.log_sigma_zero
            assert math.exp(-2.0 * row.log_sigma_zero[j]) == math.exp(-2.0 * one.log_sigma_zero)
            assert dets[j] == det

    def test_row_includes_a_warning_cell(self):
        with pytest.warns(IntegrationWarning):
            exact_open_det(self.X, CosmoParams(20.0, 9.3, self.ELLH))

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError, match="bogus"):
            discord_cosmo(0.5, -0.4, CosmoParams(1.0, 2.1, 0.1), method="bogus")

    def test_row_shapes(self):
        params = CosmoParams(1.0, 2.1, 0.1)
        assert isinstance(exact_open_det(0.5, params), float)
        assert isinstance(exact_open_det(0.5, params, kGamma_over_kstar=2.0), float)
        dets = exact_open_det(0.5, params, kGamma_over_kstar=[1.0, 2.0])
        assert isinstance(dets, np.ndarray) and dets.shape == (2,)
        with pytest.raises(DomainError):
            exact_open_det(0.5, params, kGamma_over_kstar=[[1.0, 2.0]])
        with pytest.raises(DomainError):
            exact_open_det(0.5, params, kGamma_over_kstar=[1.0, -2.0])

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0, -0.0, -0.5])
    def test_bad_x_rejected_at_entry(self, x):
        with pytest.raises(DomainError, match=f"got {x}"):
            exact_open_det(x, CosmoParams(1.0, 2.1, 0.1))

    @pytest.mark.parametrize("corr11", [1e300, math.nan, -math.inf])
    def test_node_guard(self, monkeypatch, corr11):
        # g11 = v2 - 2 kap2 corr11 negative, NaN or infinite at the nodes
        from gausslind import cosmology
        node = cosmology._g11_node
        monkeypatch.setattr(cosmology, "_g11_node",
                            lambda x, params: (node(x, params)[0], corr11, None))
        with pytest.raises(BelowHeisenbergError, match="diagonal entries must be positive"):
            exact_open_det(0.5, CosmoParams(1.0, 2.1, 0.1))

    def test_blocks_built_once_per_cell(self, monkeypatch):
        from gausslind.symplectic import CovarianceBlock
        built = []
        post_init = CovarianceBlock.__post_init__
        monkeypatch.setattr(CovarianceBlock, "__post_init__",
                            lambda block: built.append(1) or post_init(block))
        params = CosmoParams(0.0, 9.3, self.ELLH)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            exact_open_det(self.X, params, kGamma_over_kstar=self.COUPLINGS)
            assert built == []
            discord_cosmo(self.X, -0.4, params, "exact", kGamma_over_kstar=self.COUPLINGS,
                          p=np.array([6.1, 9.3]))
        assert len(built) == 2 * len(self.COUPLINGS)

    def test_environment_off_gives_one(self):
        params = CosmoParams(1.0, 2.1, 0.1)
        assert exact_open_det(10.0, params) == 1.0
        assert exact_open_det(12.0, params) == 1.0
        assert exact_open_det(12.0, params, kGamma_over_kstar=[1.0, 2.0]).tolist() == [1.0, 1.0]

    # the couplings over a scale, as a mode off the pivot reads them (the
    # kGamma_eff rule of CosmoParams)
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_covariance_row_equals_scalar_calls(self, monkeypatch, scale):
        from gausslind import cosmology
        params, couplings = CosmoParams(0.0, 6.1, self.ELLH), self.COUPLINGS / scale
        terms = cosmology._exact_open_terms
        calls = []
        monkeypatch.setattr(cosmology, "_exact_open_terms",
                            lambda x, p: calls.append(x) or terms(x, p))
        row = exact_open_covariance(self.X, params, kGamma_over_kstar=couplings)
        assert calls == [self.X]
        assert isinstance(row, list) and len(row) == len(couplings)
        for block, kg in zip(row, couplings.tolist()):
            cell = CosmoParams(kg, 6.1, self.ELLH)
            assert block == exact_open_covariance(self.X, cell)
            assert block == exact_open_covariance(self.X, params, kGamma_over_kstar=kg)
        with pytest.raises(DomainError):
            exact_open_covariance(self.X, params, kGamma_over_kstar=[[1.0]])
        with pytest.raises(DomainError):
            exact_open_covariance(self.X, params, kGamma_over_kstar=[])

    def test_discord_row_makes_one_covariance_call_per_p(self, monkeypatch):
        from gausslind import cosmology
        calls = []
        cov = cosmology.exact_open_covariance
        monkeypatch.setattr(cosmology, "exact_open_covariance",
                            lambda *a, **k: calls.append(1) or cov(*a, **k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            discord_cosmo(self.X, -0.4, CosmoParams(0.0, 9.3, self.ELLH), "exact",
                          kGamma_over_kstar=self.COUPLINGS, p=[6.1, 9.3])
        assert len(calls) == 2


class TestAsymptoticCoefficients:
    def test_leading_coefficient_anchor(self):
        # p = 0: -2/((-8)(-5)(-2)) = 0.025
        t = asymptotic_coefficients(CosmoParams(1.0, 1e-9, 0.1))
        assert abs(t.a11 - 0.025) < 1e-9

    @pytest.mark.parametrize("p", [0.5, 2.1, 3.7, 6.1, 9.3])
    def test_identities(self, p):
        t = asymptotic_coefficients(CosmoParams(1.0, p, 0.1))
        resid = (4.0 - p) * t.a22 - 2.0 * (6.0 - p) * t.a11 - 1.0
        assert abs(resid) < 1e-12

    def test_singular_p_rejected(self):
        for p in (2.0, 4.0, 5.0, 8.0):
            with pytest.raises(SingularExponentError):
                asymptotic_coefficients(CosmoParams(1.0, p, 0.1))

    @pytest.mark.parametrize("p", [2.1, 6.1])
    def test_approx_matches_exact(self, p):
        params = FIG_PARAMS[p]
        x = 1e-3
        got = approx_open_covariance(x, params)
        want = exact_open_covariance(x, params)
        for a, b in ((got.g11, want.g11), (got.g12, want.g12), (got.g22, want.g22)):
            assert abs(a - b) < 0.05 * abs(b)

    def test_zero_coupling_leading_behavior(self):
        params = CosmoParams(kGamma_over_kstar=0.0, p=2.1, ellH=0.1)
        x = 1e-3
        got = approx_open_covariance(x, params)
        assert abs(got.g11 - 1.0 / x ** 2) < 1e-12 / x ** 2
        assert abs(got.g12 - 1.0 / x ** 3) < 1e-12 / x ** 3
        assert abs(got.g22 - 1.0 / x ** 4) < 1e-12 / x ** 4


class TestSigmaZero:
    def test_zero_coupling(self):
        params = CosmoParams(kGamma_over_kstar=0.0, p=2.1, ellH=0.1)
        assert sigma0_sq_approx(1e-3, params) == 1.0

    @pytest.mark.parametrize("p", [2.1, 6.1])
    def test_quadratic_coefficients_match_closed_forms(self, p):
        # the coefficient-table route must reproduce the closed-form
        # power-law combinations at the quadratic coupling order
        params = CosmoParams(kGamma_over_kstar=1.0, p=p, ellH=0.1)
        s0_2, _, sx_2, _, _ = sigma0_sq_coefficients(
            asymptotic_coefficients(params), params.kGamma_over_kstar ** 2)
        kap2 = params.kGamma_over_kstar ** 2
        want_sx = kap2 * 2.0 / (p - 2.0)
        want_s0 = -2.0 * kap2 * (
            params.ellH ** (p - 4.0) / (p - 4.0) + params.ellH ** (p - 2.0) / (p - 2.0))
        assert abs(sx_2 - want_sx) < 1e-10 * abs(want_sx)
        assert abs(s0_2 - want_s0) < 1e-10 * abs(want_s0)

    @pytest.mark.parametrize("p", [2.1, 6.1])
    def test_matches_transport_determinant(self, p):
        # the whole ln sigma^2(0) curve after Hubble exit, not one point
        params = FIG_PARAMS[p]
        xs = (0.05, 0.01, 1e-3)
        traj = evolve_de_sitter(params.x_coupling_on, 1e-3, cosmo_kernel(params),
                                x_eval=xs, rtol=1e-12, atol=1e-13)
        for i, x in enumerate(xs):
            got = sigma0_sq_approx(float(x), params)
            assert abs(got - traj.det[i]) < 0.05 * traj.det[i]

    def test_sigma_cancellations_symbolic(self):
        # assemble det(gamma) from the full super-Hubble expansions with
        # symbolic x (numeric series coefficients) and verify that the
        # integer powers x^{-6} .. x^{-1} all cancel, while the x^0 and
        # x^{2-p} coefficients reproduce the closed-form Sigma terms
        import sympy as sp

        params = CosmoParams(kGamma_over_kstar=0.7, p=2.1, ellH=0.1)
        t = super_hubble_series(asymptotic_coefficients(params))
        kap2 = params.kGamma_over_kstar ** 2
        x, y = sp.symbols("x y", positive=True)  # y stands for x^{-p}

        corr11 = (y * t.a11 * x ** 6 + t.b11 / x ** 2 + t.c11 + t.d11 * x
                  + t.e11 * x ** 3 + t.f11 * x ** 4 + t.g11 * x ** 5 + t.h11 * x ** 6)
        corr12 = (y * t.a12 * x ** 5 + t.b12 / x ** 3 + t.c12 + t.d12 * x ** 2
                  + t.e12 * x ** 3 + t.f12 * x ** 4 + t.g12 * x ** 5 + t.h12 * x ** 6)
        corr22 = (y * t.a22 * x ** 4 + t.b22 / x ** 4 + t.c22 / x ** 2 + t.d22 / x
                  + t.e22 + t.f22 * x + t.g22 * x ** 2 + t.h22 * x ** 3
                  + t.i22 * x ** 4 + t.j22 * x ** 5 + t.k22 * x ** 6)
        g11 = (1 + x ** 2) / x ** 2 - 2 * kap2 * corr11
        g12 = 1 / x ** 3 - 2 * kap2 * corr12
        g22 = (x ** 4 - x ** 2 + 1) / x ** 4 - 2 * kap2 * corr22
        det = sp.expand(g11 * g22 - g12 ** 2)
        poly = sp.Poly(sp.expand(det * x ** 8), x, y)

        def coeff(nx, ny):
            # coefficient of x^{nx} y^{ny} in det (shifted by the x^8 clear)
            return float(poly.coeff_monomial(x ** (nx + 8) * y ** ny))

        scale = max(abs(t.b11), abs(t.d11), 1.0) ** 2 * max(kap2, kap2 ** 2)
        for n in range(-6, 0):
            assert abs(coeff(n, 0)) < 1e-9 * scale, f"x^{n} survived"
        # constant, x^{2-p} and x^{10-2p} pieces against the closed-form
        # Sigma terms (the latter is the squared non-analytic correction)
        s0_2, s0_4, sx_2, sx_4, sxx_4 = sigma0_sq_coefficients(
            asymptotic_coefficients(params), params.kGamma_over_kstar ** 2)
        assert abs(coeff(0, 0) - (1.0 + s0_2 + s0_4)) < 1e-9 * scale
        assert abs(coeff(2, 1) - (sx_2 + sx_4)) < 1e-9 * scale
        assert abs(coeff(10, 2) - sxx_4) < 1e-9 * scale

    def test_exact_open_det_quadrature(self):
        # determinant growth law integrated against the exact g11
        params = FIG_PARAMS[2.1]
        x = 0.05
        got = exact_open_det(x, params)
        traj = evolve_de_sitter(params.x_coupling_on, x, cosmo_kernel(params),
                                rtol=1e-12, atol=1e-13)
        assert abs(got - traj.det[-1]) < 1e-5 * traj.det[-1]


class TestPowerSpectrum:
    @pytest.mark.parametrize("k_over_kstar", [1.0, 100.0])
    def test_coupling_square_overflow(self, k_over_kstar):
        # raised a bare OverflowError from the coupling square
        with pytest.raises(DomainError, match="a finite double"):
            power_spectrum_correction(CosmoParams(1e160, 2.1, 0.1), k_over_kstar)

    @pytest.mark.parametrize("kappa, p, k_over_kstar", [
        (10.0, -200.0, 1e-2), (10.0, -400.0, 1.0), (10.0, 9.0, 1e110), (1e150, 9.0, 1e10),
    ], ids=["k_power", "ellH_power", "k_cubed", "product"])
    def test_power_overflow(self, kappa, p, k_over_kstar):
        # k^(p - 5), ellH^(p - 4) and k^3 raised a bare OverflowError, and a
        # product past the range of doubles returned inf
        with pytest.raises(DomainError, match="a finite double"):
            power_spectrum_correction(CosmoParams(kappa, p, 0.1), k_over_kstar)

    def test_scale_invariant_at_p5(self):
        vals = [power_spectrum_correction(
            CosmoParams(0.1, 5.0, 0.01), k).value
            for k in (0.01, 1.0, 100.0)]
        assert max(vals) - min(vals) < 1e-10 * abs(vals[0])
        assert power_spectrum_correction(CosmoParams(0.1, 5.0, 0.01)).regime \
            is PsRegime.P_4_TO_8

    def test_freezes_below_p8(self):
        for p in (3.0, 6.5):
            corr = power_spectrum_correction(CosmoParams(0.1, p, 0.01))
            assert corr.time_dependent is False

    def test_growing_mode_above_p8(self):
        corr = power_spectrum_correction(CosmoParams(0.1, 9.0, 0.01))
        assert corr.regime is PsRegime.P_GT_8
        assert corr.time_dependent is True

    # float.hex of power_spectrum_correction(CosmoParams(0.7, p, 0.05),
    # 1.3).value, recorded with scipy.special's gamma.  No
    # benchmark workload reaches this gamma: 5.5 and 7.3 go through
    # _reflected_gamma_cos, 6.0 is the removable point, 3.3 and 9.1 the
    # outer regimes.
    @pytest.mark.parametrize("p, bits", [
        (3.3, "0x1.d30251e0a4965p+1"),
        (5.5, "0x1.824a3633dd6abp-2"),
        (6.0, "0x1.4624dd2f1a9fbp-2"),
        (7.3, "0x1.b93b14887755ep-2"),
        (9.1, "0x1.1369337779fa4p-3"),
    ])
    def test_value_bits(self, p, bits):
        corr = power_spectrum_correction(CosmoParams(0.7, p, 0.05), 1.3)
        assert float(corr.value).hex() == bits

    def test_slope_p3(self):
        a = power_spectrum_correction(CosmoParams(0.1, 3.0, 0.01), 1.0)
        b = power_spectrum_correction(CosmoParams(0.1, 3.0, 0.01), 10.0)
        assert abs(b.value / a.value - 10.0 ** (3.0 - 5.0)) < 1e-10

    @pytest.mark.parametrize("p", [3.0001, 2.5, 6.5, 7.3])
    def test_matches_leading_coefficient_route(self, p):
        # independent evaluation: -2 B11 (kGamma/k)^2 with B11 from the
        # special-function table, at small ellH
        params = CosmoParams(0.1, p, 0.01)
        t = asymptotic_coefficients(params)
        want = -2.0 * params.kGamma_over_kstar ** 2 * t.b11
        got = power_spectrum_correction(params).value
        assert abs(got - want) < 0.1 * abs(want)

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
    def test_k_must_be_finite_and_positive(self, k):
        with pytest.raises(DomainError, match="k_over_kstar must be finite and positive"):
            power_spectrum_correction(CosmoParams(0.1, 3.0, 0.01), k)

    def test_singular_rejected(self):
        with pytest.raises(SingularExponentError):
            power_spectrum_correction(CosmoParams(0.1, 4.0, 0.01))
        with pytest.raises(SingularExponentError):
            power_spectrum_correction(CosmoParams(0.1, 8.0, 0.01))


class TestDecoherenceThreshold:
    def test_anchors(self):
        assert abs(decoherence_threshold(CosmoParams(1.0, 4.0, 0.1), math.exp(10.0))
                   - math.exp(-10.0)) < 1e-14
        assert abs(decoherence_threshold(CosmoParams(1.0, 0.0, 0.1), 10.0)
                   - 0.01) < 1e-14

    def test_brackets_purity_half_contour(self):
        # at 3x the threshold the state is decohered (det - 1 > 1), at
        # threshold/3 it is not: an order-of-magnitude contour check
        for p in (3.0, 4.5):
            a_ratio = math.exp(3.0)
            thr = decoherence_threshold(CosmoParams(1.0, p, 0.1), a_ratio)
            for fac, decohered in ((3.0, True), (1.0 / 3.0, False)):
                params = CosmoParams(kGamma_over_kstar=fac * thr, p=p, ellH=0.1)
                traj = evolve_de_sitter(params.x_coupling_on, 1.0 / a_ratio,
                                        cosmo_kernel(params))
                assert bool(traj.det[-1] - 1.0 > 1.0) == decohered


class TestDiscordCosmo:
    def test_free_limit_super_hubble_form(self):
        # kGamma = 0: D ~ log2(|sin 2theta|/(4 x^4)) + 1/ln2
        params = CosmoParams(kGamma_over_kstar=0.0, p=2.1, ellH=0.1)
        for x, theta in ((1e-4, -math.pi / 4), (1e-6, 0.3)):
            got = discord_cosmo(x, theta, params, method="approx").discord
            want = (math.log(abs(math.sin(2 * theta)) / (4.0 * x ** 4))
                    + 1.0) / math.log(2.0)
            assert abs(got - want) < 1e-6 * want

    def test_methods_agree_moderate_x(self):
        params = FIG_PARAMS[2.1]
        x, theta = 0.02, -math.pi / 4
        d_exact = discord_cosmo(x, theta, params, method="exact").discord
        d_transport = discord_cosmo(x, theta, params, method="transport").discord
        d_approx = discord_cosmo(x, theta, params, method="approx").discord
        assert abs(d_exact - d_transport) < 1e-3 * max(1.0, abs(d_exact))
        assert abs(d_exact - d_approx) < 0.05 * max(1.0, abs(d_exact))

    def test_growth_below_p6(self):
        params = FIG_PARAMS[2.1]
        d1 = discord_cosmo(1e-3, -math.pi / 4, params, method="approx").discord
        d2 = discord_cosmo(1e-4, -math.pi / 4, params, method="approx").discord
        assert d2 > d1 > 0.0
        # slope per e-fold approaches (6-p)/ln2 deep on super-Hubble scales
        d3 = discord_cosmo(math.exp(-25.0), -math.pi / 4, params, "approx").discord
        d4 = discord_cosmo(math.exp(-26.0), -math.pi / 4, params, "approx").discord
        slope = d4 - d3
        assert abs(slope - (6.0 - 2.1) / math.log(2.0)) < 0.05 * slope

    def test_suppression_above_p6(self):
        params = FIG_PARAMS[6.1]
        d1 = discord_cosmo(math.exp(-20.0), -math.pi / 4, params, "approx").discord
        d2 = discord_cosmo(math.exp(-22.0), -math.pi / 4, params, "approx").discord
        assert d2 < d1

    def test_reference_partition_no_discord(self):
        params = FIG_PARAMS[2.1]
        assert discord_cosmo(1e-4, 0.0, params, method="approx").discord == 0.0

    def test_approx_window_enforced(self):
        params = FIG_PARAMS[2.1]
        for x in (0.5, 0.1, 0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                discord_cosmo(x, -math.pi / 4, params, method="approx")

    @pytest.mark.parametrize("method", ["exact", "transport"])
    def test_coupling_row_equals_scalar_calls(self, method):
        params = CosmoParams(kGamma_over_kstar=0.0, p=2.1, ellH=0.1)
        couplings = np.array([0.5, 5.0])
        row = discord_cosmo(0.05, -0.4, params, method, kGamma_over_kstar=couplings)
        for j, kg in enumerate(couplings):
            cell = discord_cosmo(0.05, -0.4, CosmoParams(float(kg), 2.1, 0.1), method)
            if method == "exact":
                assert row.discord[j] == cell.discord
                assert row.log_sigma_zero[j] == cell.log_sigma_zero
            else:
                # one integration for the row, at tolerances tightened by sqrt(N)
                assert abs(row.discord[j] - cell.discord) <= 1e-9 * max(1.0, abs(cell.discord))
                assert abs(row.log_sigma_zero[j] - cell.log_sigma_zero) <= 1e-9


class TestParamValidation:
    def test_offset_singular_p(self):
        for n in range(2, 10):
            for p in (n - 5e-5, float(n), n + 5e-5):
                assert offset_singular_p(p) == n + 1e-4
        for p in (0.5, 1.0, 2.0002, 2.9998, 6.1):
            assert offset_singular_p(p) == p

    def test_ellh_window(self):
        with pytest.raises(DomainError):
            CosmoParams(1.0, 2.1, 1.5)
        with pytest.raises(DomainError):
            CosmoParams(1.0, 2.1, 0.0)

    def test_negative_coupling(self):
        with pytest.raises(DomainError):
            CosmoParams(-1.0, 2.1, 0.1)

    @pytest.mark.parametrize("field", ["kGamma_over_kstar", "p", "ellH"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(DomainError):
            CosmoParams(**dict({"kGamma_over_kstar": 1.0, "p": 2.1, "ellH": 0.1},
                               **{field: value}))

    @pytest.mark.parametrize("entry", [
        lambda: decoherence_threshold(CosmoParams(1.0, 2.1, 0.1), math.nan),
        lambda: decoherence_threshold(CosmoParams(1.0, 300.0, 0.1), 1e-10),
        lambda: de_sitter_squeezing(math.nan),
        lambda: de_sitter_squeezing(math.inf),
        lambda: de_sitter_mode(math.inf),
        lambda: de_sitter_covariance_closed(math.inf),
        lambda: offset_singular_p(math.nan),
        lambda: offset_singular_p(-math.inf),
        lambda: wigner_ellipse(SqueezingState(0.3, -0.2, 1.0), math.nan),
        lambda: wigner_ellipse(SqueezingState(0.3, -0.2, 1.0), -1.0),
        lambda: sigma_theta(CovarianceBlock(2.0, 1.0, 1.0), math.nan),
        lambda: entropy_kernel(math.nan),
        lambda: entropy_kernel(np.array([2.0, math.nan])),
    ], ids=["threshold_nan", "threshold_overflows", "squeezing_nan", "squeezing_inf",
            "mode_inf", "covariance_inf", "offset_nan", "offset_inf",
            "ellipse_nan", "ellipse_negative", "sigma_theta_nan", "entropy_nan",
            "entropy_row_nan"])
    def test_scalar_entry_refuses(self, entry):
        # each returned NaN or a wrong value, or raised a bare
        # OverflowError or ValueError
        with pytest.raises(DomainError):
            entry()


class TestOffPivotModes:
    """A mode k off the pivot, at x* = -k eta* at the reference time, has
    the source 2 (kGamma/k)^2 (x*/x)^(p-3): it is the pivot mode at
    kGamma_eff/k* = (kGamma/k*) (k/k*)^-1 x*^((p-3)/2)."""

    # (kGamma/k*, p, ellH, k/k*, x*): float.hex of (D, ln sigma(0)) of the
    # approx (x = 1e-3), exact (x = 0.5) and transport (x = 1e-3) routes,
    # recorded when CosmoParams took k/k* and x* as fields
    CASES = {
        (0.7, 3.3, 0.1, 1.3, 1.3): (
            ("0x1.a83cce04cbd57p+4", "0x1.2c065039d4955p+2"),
            ("0x1.90467548d67e9p+0", "0x1.401cd043d8048p+0"),
            ("0x1.a83ccf5031515p+4", "0x1.2c064c55b034fp+2")),
        (2.0, 6.1, 0.05, 0.5, 0.5): (
            ("0x1.5b9d19b39dbb6p-2", "0x1.cdd456ab70e53p+3"),
            ("0x1.09670399218bdp-1", "0x1.d08a0037f9c45p+0"),
            ("0x1.5b9cdf95d8b3ap-2", "0x1.cdd458b77ae8dp+3")),
        (0.05, 8.5, 0.2, 3.0, 0.7): (
            ("0x1.f16b909460ef9p-10", "0x1.0c92ed60326dep+4"),
            ("0x1.ccf7712ec2a32p+1", "0x1.83d86b25abf85p-11"),
            ("0x1.f16b40fd3b071p-10", "0x1.0c92ee221045bp+4")),
        (10.0, 1.5, 0.1, 0.3, 2.0): (
            ("0x1.6eb285b5d8650p+4", "0x1.5b5fc3938dffap+3"),
            ("0x1.2a298e301f312p-12", "0x1.5afbfe478ab3fp+3"),
            ("0x1.6eb28432ac2c6p+4", "0x1.5b5fc3937f47dp+3")),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pivot_mode_at_kgamma_eff(self, case):
        kg, p, ellH, k, x_star = case
        params = CosmoParams(kg / k * x_star ** ((p - 3.0) / 2.0), p, ellH)
        for (method, x), bits in zip((("approx", 1e-3), ("exact", 0.5), ("transport", 1e-3)),
                                     self.CASES[case]):
            got = discord_cosmo(x, -math.pi / 4.0, params, method)
            for value, want in zip((got.discord, got.log_sigma_zero), map(float.fromhex, bits)):
                assert abs(value - want) <= 1e-14 * abs(want), (method, value, want)


class TestEvolveDeSitter:
    def test_bad_endpoints_rejected(self):
        source = cosmo_kernel(FIG_PARAMS[2.1])
        for x_start, x_end in ((10.0, 0.0), (-1.0, 0.1), (math.nan, 0.1)):
            with pytest.raises(DomainError):
                evolve_de_sitter(x_start, x_end)
        # a source only runs forward in time (x decreasing)
        for x_end in (5.0, 10.0):
            with pytest.raises(DomainError):
                evolve_de_sitter(1.0, x_end, source)

    def test_unitary_runs_both_ways(self):
        xs = (0.1, 1.0, 10.0)
        traj = evolve_de_sitter(0.1, 10.0, x_eval=xs)
        for i, x in enumerate(xs):
            want = de_sitter_covariance_closed(x)
            assert abs(traj.g11[i] / want.g11 - 1.0) < 1e-6
            assert abs(traj.purity[i] - 1.0) < 1e-9

    def test_backward_accuracy_bound(self):
        # backwards, the error grows like 0.02 rtol / x_start^6: from
        # x = 0.01 g11 at x = 10 would be off by ~10 % with purity 1
        for rtol in (1e-11, 1e-12):
            x_min = (0.02 * rtol / 1e-6) ** (1.0 / 6.0)
            with pytest.raises(DomainError):
                evolve_de_sitter(0.98 * x_min, 10.0, rtol=rtol)
            xs = (1.0, 10.0, 100.0)
            traj = evolve_de_sitter(1.02 * x_min, 100.0, x_eval=xs, rtol=rtol)
            for i, x in enumerate(xs):
                want = de_sitter_covariance_closed(x)
                assert abs(traj.g11[i] / want.g11 - 1.0) < 1e-6
                assert abs(traj.g22[i] / want.g22 - 1.0) < 1e-6
        with pytest.raises(DomainError):
            evolve_de_sitter(0.01, 10.0)
        # forward runs are not limited
        evolve_de_sitter(10.0, 0.01)

    @pytest.mark.parametrize("x_start, x_end, source", [
        (10.0, 1e308, None), (2e6, 1.0, None), (10.0, math.inf, None),
        (1e6, 1.5e6, None), (1e7, 1.0, lambda eta: 0.1)],
        ids=["to_1e308", "from_2e6", "to_inf", "to_1.5e6", "source_from_1e7"])
    def test_x_beyond_the_bound_rejected_in_bounded_time(self, x_start, x_end, source):
        # ~50 us of integration per unit of x: beyond EVOLVE_X_MAX a run
        # would not end, so the entry refuses it before any step
        def alarm(signum, frame):
            raise TimeoutError("evolve_de_sitter ran past its 5-s alarm")

        previous = signal.signal(signal.SIGALRM, alarm)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            with pytest.raises(DomainError):
                evolve_de_sitter(x_start, x_end, source)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _trajectory_cell(traj, theta):
    """(discord, ln sigma(0)) of the last sample of a trajectory."""
    ln_s0sq, ln_q = oracle.log_sigmas(traj, theta)
    return _discord_from_logs(ln_s0sq[-1], ln_q[-1])[0], 0.5 * ln_s0sq[-1]


class TestBatchedTransport:
    """The transport route of discord_cosmo on a p row: one collocated
    response, whatever the number of couplings."""

    X, THETA = 1e-3, -math.pi / 4

    @pytest.mark.parametrize("p", [0.5, 2.0001, 5.3, 9.5])
    def test_row_matches_scalar_runs(self, p):
        # each cell of the row against one scalar run of its own source
        couplings = np.logspace(-6.0, 0.0, 5)
        row = discord_cosmo(self.X, self.THETA, CosmoParams(0.0, p, 0.1), "transport",
                            kGamma_over_kstar=couplings)
        for j, kg in enumerate(couplings.tolist()):
            cell = CosmoParams(kg, p, 0.1)
            d, ln_s0 = _trajectory_cell(evolve_de_sitter(cell.x_coupling_on, self.X,
                                                         cosmo_kernel(cell), x_eval=(self.X,)),
                                        self.THETA)
            assert abs(row.discord[j] - d) <= 1e-8 * max(1.0, abs(d))
            assert abs(row.log_sigma_zero[j] - ln_s0) <= 1e-8

    def test_zero_coupling_cell_is_the_closed_run(self):
        # kGamma = 0 leaves every row at the closed state of the free
        # de Sitter mode, whatever p
        row = discord_cosmo(self.X, self.THETA, CosmoParams(0.0, 0.5, 0.1), "transport",
                            kGamma_over_kstar=np.array([0.0]), p=np.array([0.5, 5.3]))
        assert np.array_equal(row.discord[0], row.discord[1])
        assert np.array_equal(row.log_sigma_zero[0], row.log_sigma_zero[1])
        d, ln_s0 = _trajectory_cell(evolve_de_sitter(10.0, self.X, x_eval=(self.X,)),
                                    self.THETA)
        assert abs(row.discord[0, 0] / d - 1.0) < 1e-9
        assert abs(row.log_sigma_zero[0, 0] - ln_s0) < 1e-9

    def test_row_matches_closed_form(self):
        # an independent oracle: the incomplete-gamma closed form is good to
        # ~1e-12 at p = 2.1 down to x = 1e-5
        couplings = np.array([0.1, 1.0, 10.0])
        row = discord_cosmo(self.X, self.THETA, CosmoParams(0.0, 2.1, 0.1), "transport",
                            kGamma_over_kstar=couplings)
        for j, kg in enumerate(couplings.tolist()):
            cell = CosmoParams(kg, 2.1, 0.1)
            block = exact_open_covariance(self.X, cell)
            d, ln_s0 = _trajectory_cell(SimpleNamespace(
                g11=np.array([block.g11]), g12=np.array([block.g12]),
                g22=np.array([block.g22]), lam=np.array([exact_open_det(self.X, cell)])),
                self.THETA)
            assert abs(row.discord[j] / d - 1.0) < 1e-9
            assert abs(row.log_sigma_zero[j] / ln_s0 - 1.0) < 1e-9

    def test_known_defect_rows_run(self):
        # x = 1e-3, ellH = 0.1, kGamma/k* 1e-2..1e2: the rows at p <~ 2 with
        # large couplings failed as per-cell integrations; as one response
        # per row they run and match the exact route
        couplings = 10.0 ** np.linspace(-2.0, 2.0, 8)
        for p in (0.1, 2.9):
            params = CosmoParams(0.0, p, 0.1)
            row = discord_cosmo(self.X, self.THETA, params, "transport",
                                kGamma_over_kstar=couplings)
            exact = discord_cosmo(self.X, self.THETA, params, "exact",
                                  kGamma_over_kstar=couplings)
            assert np.all(np.abs(row.discord - exact.discord)
                          <= 1e-9 * np.maximum(1.0, np.abs(exact.discord)))
            assert np.all(np.abs(row.log_sigma_zero - exact.log_sigma_zero) <= 1e-9)


class TestEmptyRows:
    """An empty coupling row or p row is a DomainError on every route."""

    @pytest.mark.parametrize("method", ["approx", "exact", "transport"])
    def test_empty_coupling_row(self, method):
        with pytest.raises(DomainError):
            discord_cosmo(0.05, -0.4, CosmoParams(0.0, 2.1, 0.1), method,
                          kGamma_over_kstar=np.array([]))

    @pytest.mark.parametrize("method", ["approx", "exact", "transport"])
    def test_empty_p_row(self, method):
        with pytest.raises(DomainError):
            discord_cosmo(0.05, -0.4, CosmoParams(0.0, 2.1, 0.1), method,
                          kGamma_over_kstar=np.array([0.5, 5.0]), p=np.array([]))

    def test_exact_open_det_empty_row(self):
        with pytest.raises(DomainError):
            exact_open_det(0.05, CosmoParams(0.0, 2.1, 0.1), kGamma_over_kstar=[])

    @pytest.mark.parametrize("method", ["approx", "exact", "transport"])
    def test_infinite_coupling(self, method):
        with pytest.raises(DomainError):
            discord_cosmo(0.05, -0.4, CosmoParams(0.0, 2.1, 0.1), method,
                          kGamma_over_kstar=np.array([0.5, math.inf]))
        with pytest.raises(DomainError):
            exact_open_det(0.05, CosmoParams(0.0, 2.1, 0.1), kGamma_over_kstar=[math.inf])


class TestDiscordChecks:
    """discord_cosmo checks its input once, before any route runs, and the
    output of each block once."""

    METHODS = ["approx", "exact", "transport"]
    PARAMS = CosmoParams(0.1, 2.1, 0.1)

    @pytest.fixture
    def no_route(self, monkeypatch):
        from gausslind import cosmology

        def route(*args):
            raise AssertionError("a route ran")

        for method in self.METHODS:
            monkeypatch.setitem(cosmology._ROUTES, method, route)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("x", [0.0, -1e-3, math.nan, math.inf, "x_max"])
    def test_x_window_at_entry(self, no_route, method, x):
        if x == "x_max":
            x = APPROX_X_MAX if method == "approx" else self.PARAMS.x_coupling_on
        with pytest.raises(DomainError, match=f"for method '{method}', got {x}"):
            discord_cosmo(x, -0.4, self.PARAMS, method)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("params, couplings", [
        (CosmoParams(1e160, 2.1, 0.1), None),
        (CosmoParams(0.0, 2.1, 0.1), np.array([0.5, 1e160])),
    ], ids=["scalar", "row"])
    def test_coupling_square_overflow_at_entry(self, no_route, method, params, couplings):
        with pytest.raises(DomainError, match="a finite double"):
            discord_cosmo(0.05, -0.4, params, method, kGamma_over_kstar=couplings)

    @pytest.mark.parametrize("route", [
        cosmo_kernel,
        *(functools.partial(f, 0.05) for f in (exact_open_covariance, exact_open_det,
                                               approx_open_covariance, sigma0_sq_approx)),
    ], ids=["cosmo_kernel", "exact_open_covariance", "exact_open_det",
            "approx_open_covariance", "sigma0_sq_approx"])
    def test_coupling_square_overflow_on_scalar_routes(self, route):
        # each raised a bare OverflowError from the coupling square
        with pytest.raises(DomainError, match="a finite double"):
            route(CosmoParams(1e160, 2.1, 0.1))

    @pytest.mark.parametrize("method, x", [("approx", 1e-4), ("exact", 0.5),
                                           ("transport", 0.5)])
    @pytest.mark.parametrize("which, bad", [(0, math.inf), (1, math.nan)],
                             ids=["ln_s0sq_inf", "ln_q_nan"])
    def test_non_finite_cell_raises(self, monkeypatch, method, x, which, bad):
        # one cell of a route's (ln sigma(0)^2, ln q) spoilt
        from gausslind import cosmology
        route = cosmology._ROUTES[method]

        def spoilt(*args):
            logs = [np.array(v) for v in route(*args)]
            logs[which][-1, -1] = bad
            return logs

        monkeypatch.setitem(cosmology._ROUTES, method, spoilt)
        with pytest.raises(StepFailureError, match="not finite"):
            discord_cosmo(x, -0.4, CosmoParams(0.0, 2.1, 0.1), method,
                          kGamma_over_kstar=np.array([0.01, 1.0]), p=np.array([2.1, 6.1]))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_p_finite_at_entry(self, no_route, method, p):
        # transport ran its integration on a non-finite p and raised
        # StepFailureError
        with pytest.raises(DomainError, match="p must be finite"):
            discord_cosmo(0.05, -0.4, self.PARAMS, method, p=np.array([2.1, p]))

    @pytest.mark.parametrize("method, x, params", [
        ("approx", 1e-9, CosmoParams(1.0, -50.0, 1e-3)),  # 4 b11^2
        ("exact", 0.5, CosmoParams(1.0, 0.1, 1e-300)),  # (1/ellH)^(2-p)
    ], ids=["approx_quartic", "exact_power_bracket"])
    def test_power_overflow_raises_domain_error(self, method, x, params):
        # a Python float ** raised a bare OverflowError
        with pytest.raises(DomainError, match="not a finite double"):
            discord_cosmo(x, -0.4, params, method)

    @pytest.mark.parametrize("route", [sigma0_sq_approx, approx_open_covariance],
                             ids=["sigma0_sq_approx", "approx_open_covariance"])
    def test_super_hubble_power_overflow_on_scalar_routes(self, route):
        # x^(10-2p) and x^(6-p) pass the range of doubles: sigma0_sq_approx
        # raised a bare OverflowError, approx_open_covariance warned of the
        # overflow in numpy's power and raised BelowHeisenbergError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not a finite double"):
                route(1e-9, CosmoParams(1.0, 60.5, 0.1))

    def test_exact_det_overflow_raises(self):
        # exact_open_det is inf at p ~ 150: the cells read D = nan and
        # purity 0 when no output check held them
        with pytest.raises(StepFailureError, match="method 'exact'"):
            discord_cosmo(0.05, -math.pi / 4.0, CosmoParams(0.0, 150.5, 0.1), "exact",
                          kGamma_over_kstar=np.array([1e-10, 1e-2, 1e6]),
                          p=np.array([150.5, 180.5]))


class TestDiscordPlane:
    """discord_cosmo over a (p, coupling) plane: one transport integration."""

    X, THETA = 1e-3, -math.pi / 4

    def test_transport_plane_matches_rows(self):
        ps = np.array([0.5, 2.0001, 5.3, 9.5])
        couplings = np.logspace(-6.0, 0.0, 5)
        params = CosmoParams(0.0, 0.5, 0.1)
        plane = discord_cosmo(self.X, self.THETA, params, "transport",
                              kGamma_over_kstar=couplings, p=ps)
        assert plane.discord.shape == plane.log_sigma_zero.shape == (4, 5)
        for i, p in enumerate(ps.tolist()):
            row = discord_cosmo(self.X, self.THETA, CosmoParams(0.0, p, 0.1), "transport",
                                kGamma_over_kstar=couplings)
            d = plane.discord[i]
            assert np.all(np.abs(d - row.discord) <= 1e-10 * np.maximum(1.0, np.abs(row.discord)))
            purity, want = np.exp(-2.0 * plane.log_sigma_zero[i]), np.exp(-2.0 * row.log_sigma_zero)
            np.testing.assert_allclose(purity, want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("efolds", [60.0, 65.0])
    def test_transport_plane_below_e_minus_55(self, efolds):
        # the default ranges at ellH = 0.1, where entries pass 1e154: ln q
        # from hypot squares none of them (ROADMAP item 15 step 1).  The
        # bounds are those of selfcheck's route agreement at x = e^-20.
        ps = np.array([offset_singular_p(p) for p in np.linspace(0.1, 9.9, 6).tolist()])
        couplings = 10.0 ** np.linspace(-10.0, 6.0, 6)
        x, params = math.exp(-efolds), CosmoParams(0.0, ps[0], 0.1)
        got, want = (discord_cosmo(x, self.THETA, params, method,
                                   kGamma_over_kstar=couplings, p=ps)
                     for method in ("transport", "approx"))
        large = want.discord > 1e-10
        assert np.all(np.abs(got.discord[large] / want.discord[large] - 1.0) < 3e-13)
        assert np.all(np.abs(got.discord - want.discord) < 2e-12)
        assert np.all(np.abs(got.log_sigma_zero - want.log_sigma_zero) < 6e-13)

    @pytest.mark.parametrize("efolds", [70.0, 100.0, 300.0, 690.0])
    def test_transport_plane_beyond_the_double_range(self, efolds):
        # the 12x12 default plane at ellH = 0.1: below about x = e^-67 its
        # entries and determinants pass the range of doubles, and its cells
        # are read from the scaled state in the log domain (ROADMAP item 15).
        # The bounds are those of selfcheck's route agreement, with no
        # warning; the one in D is relative to max(1, |D|), since D reaches
        # 3,189 at e^-690, where 2e-12 absolute would be 4 ulp
        ps = np.array([offset_singular_p(p) for p in np.linspace(0.1, 9.9, 12).tolist()])
        couplings = 10.0 ** np.linspace(-10.0, 6.0, 12)
        x, params = math.exp(-efolds), CosmoParams(0.0, ps[0], 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = (discord_cosmo(x, self.THETA, params, method,
                                       kGamma_over_kstar=couplings, p=ps)
                         for method in ("transport", "approx"))
        large = want.discord > 1e-10
        assert np.all(np.abs(got.discord[large] / want.discord[large] - 1.0) < 3e-13)
        assert np.all(np.abs(got.discord - want.discord)
                      < 2e-12 * np.maximum(1.0, np.abs(want.discord)))
        assert np.all(np.abs(got.log_sigma_zero - want.log_sigma_zero) < 6e-13)

    @pytest.mark.parametrize("x", [9.0, 5.0, 2.0, 1.0])
    def test_transport_plane_from_hubble_crossing_up_is_one_phase(self, monkeypatch, x):
        # 1 <= x < 1/ellH: the sub-Hubble collocation alone, with no e-fold
        # interval; its cells, read from the unscaled state in the log
        # domain, are those of the collocated response to the last bits
        from gausslind import cosmology
        ps, couplings = np.array([0.5, 5.3, 9.5]), np.logspace(-3.0, 1.0, 4)
        params = CosmoParams(0.0, 0.5, 0.1)
        intervals = record_intervals(monkeypatch, "_efold_interval")
        got = discord_cosmo(x, self.THETA, params, "transport", kGamma_over_kstar=couplings,
                            p=ps)
        assert not intervals
        monkeypatch.undo()
        # the route's own formulation: the unit sources x^(3-p), and the
        # amplitude 2 in the couplings of each row
        kap2 = np.outer(np.full(len(ps), 2.0), _kap2_row(params, couplings))

        def cells(y, a, det0):
            ln_s0sq, ln_q = oracle.log_sigmas(oracle.response_cells(y, a, det0, kap2),
                                              self.THETA)
            return _discord_from_logs(ln_s0sq[..., 0], ln_q[..., 0])[0], 0.5 * ln_s0sq[..., 0]

        # the route's det starts from 1, the det of the closed form
        y, a = cosmology._subhubble_response(params.x_coupling_on, x, ps)
        want_d, want_s0 = cells(y[..., None], a[..., None], 1.0)
        assert np.all(np.abs(got.discord - want_d) <= 1e-14 * np.maximum(1.0, want_d))
        assert np.all(np.abs(got.log_sigma_zero - want_s0) <= 1e-14)
        # and the rtol-1e-14 DOP853 response, within the bounds of
        # test_transport_route_accuracy (5.8e-13 in D, 1.4e-13 in ln sigma(0))
        ref_d, ref_s0 = cells(*oracle.de_sitter_response(
            params.x_coupling_on, x, lambda eta: np.power(-1.0 / eta, ps - 3.0), (x,),
            1e-14, 1e-16))
        assert np.max(np.abs(got.discord - ref_d)) <= 5.8e-13
        assert np.max(np.abs(got.log_sigma_zero - ref_s0)) <= 1.4e-13

    def test_one_cell_plane_is_the_scalar_call(self):
        params = CosmoParams(0.3, 5.3, 0.1)
        one = discord_cosmo(self.X, self.THETA, params, "transport")
        plane = discord_cosmo(self.X, self.THETA, params, "transport",
                              kGamma_over_kstar=np.array([0.3]), p=np.array([5.3]))
        assert plane.discord.shape == (1, 1)
        assert plane.discord[0, 0] == one.discord
        assert plane.log_sigma_theta[0, 0] == one.log_sigma_theta
        assert plane.log_sigma_zero[0, 0] == one.log_sigma_zero

    @pytest.mark.parametrize("method, x", [("approx", 1e-4), ("exact", 0.05)])
    def test_p_row_equals_row_calls(self, method, x):
        ps = np.array([0.5, 3.0001, 6.1, 8.3])
        couplings = np.array([1e-3, 0.5, 5.0])
        params = CosmoParams(0.0, 0.5, 0.1)
        plane = discord_cosmo(x, -0.4, params, method, kGamma_over_kstar=couplings, p=ps)
        for i, p in enumerate(ps.tolist()):
            row = discord_cosmo(x, -0.4, CosmoParams(0.0, p, 0.1), method,
                                kGamma_over_kstar=couplings)
            for field in ("discord", "sigma_theta", "sigma_zero",
                          "log_sigma_theta", "log_sigma_zero"):
                assert np.array_equal(getattr(plane, field)[i], getattr(row, field))

    def test_result_axes(self):
        params = CosmoParams(0.5, 2.1, 0.1)
        ps, couplings = np.array([2.1, 6.1]), np.array([0.1, 0.5, 5.0])
        assert discord_cosmo(1e-4, -0.4, params, p=ps).discord.shape == (2,)
        assert discord_cosmo(1e-4, -0.4, params, kGamma_over_kstar=couplings,
                             p=ps).discord.shape == (2, 3)
        assert isinstance(discord_cosmo(1e-4, -0.4, params, p=2.1).discord, float)

    def test_known_defect_plane_runs(self):
        # the 8x8 plane at x = 1e-3, ellH = 0.1 holds cells at p <~ 2 with
        # large couplings that failed as per-cell integrations; its rows at
        # p <= 2.9 match the exact route
        ps, couplings = np.linspace(0.1, 9.9, 8), 10.0 ** np.linspace(-2.0, 2.0, 8)
        params = CosmoParams(0.0, 0.1, 0.1)
        plane = discord_cosmo(self.X, self.THETA, params, "transport",
                              kGamma_over_kstar=couplings, p=ps)
        assert np.all(np.isfinite(plane.discord)) and np.all(np.isfinite(plane.log_sigma_zero))
        low = ps <= 2.9
        exact = discord_cosmo(self.X, self.THETA, params, "exact",
                              kGamma_over_kstar=couplings, p=ps[low])
        assert np.all(np.abs(plane.discord[low] - exact.discord)
                      <= 1e-9 * np.maximum(1.0, np.abs(exact.discord)))
        assert np.all(np.abs(plane.log_sigma_zero[low] - exact.log_sigma_zero) <= 1e-9)

    def test_known_defect_plane_matches_approx_at_small_x(self):
        # the same ranges at x = e^-20, deep in the super-Hubble window
        ps, couplings = np.linspace(0.1, 9.9, 8), 10.0 ** np.linspace(-2.0, 2.0, 8)
        ps = np.array([offset_singular_p(p) for p in ps.tolist()])
        params = CosmoParams(0.0, ps[0], 0.1)
        got, want = (discord_cosmo(math.exp(-20.0), self.THETA, params, method,
                                   kGamma_over_kstar=couplings, p=ps)
                     for method in ("transport", "approx"))
        assert np.all(np.abs(got.discord - want.discord)
                      <= 1e-11 * np.maximum(1.0, np.abs(want.discord)))
        assert np.all(np.abs(got.log_sigma_zero - want.log_sigma_zero) <= 1e-11)

    def test_efold_intervals_flat_in_couplings(self, monkeypatch):
        # one response per block of p rows: a 3x64 plane takes the e-fold
        # intervals of a 3x4 one, 1 e-fold long from x = 1 down to 1e-3
        intervals = record_intervals(monkeypatch, "_efold_interval")
        runs = []
        for n_k in (4, 64):
            intervals.clear()
            discord_cosmo(self.X, self.THETA, CosmoParams(0.0, 0.5, 0.1), "transport",
                          kGamma_over_kstar=np.logspace(-3.0, 0.0, n_k),
                          p=np.linspace(0.5, 9.5, 3))
            runs.append(list(intervals))
        assert runs[0] == runs[1]
        assert [t for t, _ in intervals] == list(range(7))
        assert [h for _, h in intervals[:-1]] == [1.0] * 6
        assert intervals[-1][1] == -math.log(self.X) - 6.0

    @pytest.mark.parametrize("method, x", [("approx", 1e-4), ("exact", 0.05),
                                           ("transport", 1e-3)])
    def test_long_rows_run_in_pieces(self, monkeypatch, method, x):
        # a budget of 3 cells cuts each row of 7 couplings into 3 + 3 + 1
        from gausslind import cosmology
        ps, couplings = np.array([0.5, 6.1]), np.logspace(-3.0, 0.0, 7)
        params = CosmoParams(0.0, 0.5, 0.1)
        whole = discord_cosmo(x, self.THETA, params, method, kGamma_over_kstar=couplings, p=ps)
        monkeypatch.setattr(cosmology, "PLANE_BLOCK_CELLS", 3)
        assemblies = TestApproxPlane._count(monkeypatch, "_discord_from_logs")
        split = discord_cosmo(x, self.THETA, params, method, kGamma_over_kstar=couplings, p=ps)
        assert len(assemblies) == 6
        if method != "transport":
            for field in TestApproxPlane.FIELDS:
                assert np.array_equal(getattr(split, field), getattr(whole, field))
            return
        # the same intervals, but a block of one p row solves with fewer
        # right-hand sides than one of two, which may move the last bits
        assert np.all(np.abs(split.discord - whole.discord)
                      <= 1e-10 * np.maximum(1.0, np.abs(whole.discord)))
        np.testing.assert_allclose(np.exp(-2.0 * split.log_sigma_zero),
                                   np.exp(-2.0 * whole.log_sigma_zero), rtol=1e-9, atol=0.0)


class TestSubHubblePhase:
    """The transport route's response from 1/ellH down to x_end >= 1, by
    Chebyshev collocation in conformal time (`_subhubble_response`)."""

    PS = np.array([offset_singular_p(p) for p in np.linspace(0.1, 9.9, 12).tolist()])

    @pytest.mark.parametrize("x_end", [1.0, 2.0])
    @pytest.mark.parametrize("ellH", [0.5, 0.1, 0.01, 1e-3])
    def test_against_dop853(self, ellH, x_end):
        # the compiled DOP853 response at rtol 1e-14 is the independent
        # reference; the largest error measured over these cases is 5.0e-14
        from gausslind import cosmology
        y, a = cosmology._subhubble_response(1.0 / ellH, x_end, self.PS)
        if not x_end < 1.0 / ellH:
            # an empty span: the closed form at 1/ellH, no response
            vac = de_sitter_covariance_closed(x_end)
            assert y[:, 0].tolist() == [vac.g11, vac.g12, vac.g22]
            assert not (y[:, 1:].any() or a.any())
            return
        want_y, want_a, want_det0 = self._reference(ellH)
        sample = (2.0, 1.0).index(x_end)
        # the det of the closed form at 1/ellH, where the route's det starts
        assert want_det0 == 1.0
        # g and each F_i, then a1 and a2
        for got, want in ((y, want_y[..., sample]), (a, want_a[..., sample])):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 2e-13 * np.abs(want))

    @classmethod
    @functools.cache
    def _reference(cls, ellH):
        """The DOP853 response from 1/ellH, sampled at x = 2 and 1."""
        return oracle.de_sitter_response(1.0 / ellH, 1.0,
                                         lambda eta: np.power(-1.0 / eta, cls.PS - 3.0),
                                         (2.0, 1.0), 1e-14, 1e-16)

    def test_intervals_flat_in_couplings(self, monkeypatch):
        # one collocation per block of p rows: a 3x64 plane takes the
        # intervals of a 3x4 one, min(2, x/3) long from each upper end x,
        # recorded in conformal time t = -x
        intervals = record_intervals(monkeypatch, "_subhubble_interval")
        runs = []
        for n_k in (4, 64):
            intervals.clear()
            discord_cosmo(1e-3, -0.4, CosmoParams(0.0, 0.5, 0.05), "transport",
                          kGamma_over_kstar=np.logspace(-3.0, 0.0, n_k),
                          p=np.linspace(0.5, 9.5, 3))
            runs.append(list(intervals))
        assert runs[0] == runs[1]
        assert intervals[0][0] == -20.0 and intervals[-1][0] + intervals[-1][1] == -1.0
        for (t, h), (t_next, _) in zip(intervals, intervals[1:]):
            assert h == min(2.0, -t / 3.0) and t_next == t + h

    def test_tail_failure_raises(self, monkeypatch):
        # a tolerance no Chebyshev tail meets: the first interval halves
        # _CHEB_HALVINGS times, then the solve fails
        from gausslind import cosmology
        monkeypatch.setattr(cosmology, "TRANSPORT_RTOL", 1e-30)
        intervals = record_intervals(monkeypatch, "_subhubble_interval")
        with pytest.raises(StepFailureError, match="halvings"):
            cosmology._subhubble_response(10.0, 1.0, np.array([0.5, 5.3]))
        assert intervals == [(-10.0, 2.0 * 0.5 ** i)
                             for i in range(cosmology._CHEB_HALVINGS + 1)]

    def test_halved_interval_goes_on(self, monkeypatch):
        # an interval whose first try fails halves and the run goes on from
        # its end, at the full length again
        from gausslind import cosmology
        intervals, interval = [], cosmology._subhubble_interval

        def fails_once(t, h, *args, **kwargs):
            intervals.append((t, h))
            return None if len(intervals) == 1 else interval(t, h, *args, **kwargs)

        monkeypatch.setattr(cosmology, "_subhubble_interval", fails_once)
        got = cosmology._subhubble_response(10.0, 1.0, self.PS)
        assert intervals[:3] == [(-10.0, 2.0), (-10.0, 1.0), (-9.0, 2.0)]
        monkeypatch.undo()
        want = cosmology._subhubble_response(10.0, 1.0, self.PS)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=0.0)

    def test_non_finite_source_raises(self):
        # x^(3 - p) overflows at x = 1/ellH for p = -400: every halving
        # fails, where DOP853 raised on the non-finite values it produced
        from gausslind import cosmology
        with pytest.raises(StepFailureError):
            cosmology._subhubble_response(10.0, 1.0, np.array([-400.0]))


class TestEfoldPhase:
    """The transport route's response below x = 1, by Chebyshev collocation
    in e-folds N = -ln x (`_efold_response`)."""

    # 12 p rows: c1 = max(p - 2, 0) near 0 at 2.0001, cF = max(p - 8, 0) > 0
    # from 8.5 up
    PS = np.array([0.1, 0.99, 1.88, 2.0001, 3.3, 4.55, 5.44, 6.33, 7.22, 8.5, 9.2, 9.9])
    XS = (0.3, 1e-3, math.exp(-20.0), math.exp(-300.0), math.exp(-690.0))

    @staticmethod
    def _start(ps, x_s=1.0):
        """The state (y, a) of the response to the unit sources x^(3-p) from
        x = 10 down to x_s, on DOP853 at evolve_de_sitter's tolerances."""
        y, a, _ = oracle.de_sitter_response(10.0, x_s, lambda eta: np.power(-1.0 / eta, ps - 3.0),
                                            (x_s,), 1e-11, 1e-12)
        return y[..., 0], a[..., 0]

    @staticmethod
    def _flat(state):
        """The rows of (y, a), or of their exponents P, as one vector."""
        return np.concatenate([v.ravel() for v in state])

    @classmethod
    @functools.cache
    def _reference(cls, ellH):
        """(start, z at each x of XS): the flow of `_efold_response` in z on
        the compiled DOP853 at rtol 1e-14 (relative only), from the state
        (y, a) of the sub-Hubble collocation at x = 1."""
        from gausslind import cosmology
        ps, n, m = cls.PS, len(cls.PS), 3 + 3 * len(cls.PS)
        start = cosmology._subhubble_response(1.0 / ellH, 1.0, ps)
        z0, powers = map(cls._flat, cosmology._efold_response(*start, 1.0, ps))
        c_f, c_1 = np.maximum(ps - 8.0, 0.0), np.maximum(ps - 2.0, 0.0)
        forcing = np.stack((8.0 - ps + c_f, 2.0 - ps + c_1))

        def rhs(efolds, z):
            x2 = math.exp(-2.0 * efolds)
            flow = np.array([[0.0, 2.0, 0.0], [2.0 - x2, 0.0, 1.0], [0.0, 4.0 - 2.0 * x2, 0.0]])
            dz = np.empty_like(z)
            dz[:m] = (flow @ z[:m].reshape(3, 1 + n)).ravel()
            # each source power held at 1e-100, where it moves no value, so
            # that no share of the error norm underflows to 0
            s_f, s_a = np.maximum(np.exp(-efolds * forcing), 1e-100)
            dz[m - n:m] += s_f
            dz[m:m + n], dz[m + n:] = s_a * z[0], s_a * z[1:1 + n]
            return dz - powers * z

        # steps below 2 / (fastest decay rate), inside DOP853's stability interval
        return start, oracle.dop853(rhs, z0, 0.0, -np.log(cls.XS), 1e-14, 0.0, 0.0,
                                    max_step=0.2)

    @pytest.mark.parametrize("x", XS, ids=["x0.3", "x1e-3", "xe-20", "xe-300", "xe-690"])
    @pytest.mark.parametrize("ellH", [0.5, 0.1, 1e-3])
    def test_against_dop853(self, ellH, x):
        # the largest error measured over these cases is 3.8e-14 (the
        # DOP853 phase at half TRANSPORT_RTOL was 6.7e-13 off at x = 0.3)
        from gausslind import cosmology
        start, want = self._reference(ellH)
        z = self._flat(cosmology._efold_response(*start, x, self.PS)[0])
        w = want[self.XS.index(x)]
        assert np.all(np.abs(z - w) <= 2e-13 * np.abs(w))

    @pytest.mark.parametrize("ps", [[0.5], [5.3], [9.9], np.linspace(0.1, 9.9, 12)],
                             ids=["p0.5", "p5.3", "p9.9", "12rows"])
    def test_cost_flat_in_efolds(self, monkeypatch, ps):
        # one interval an e-fold with no halving, down to where the source
        # powers and the integrands of a1 underflow (p = 5.3 took 205 DOP853
        # calls an e-fold over e^-100..e^-300 before the powers were held at
        # ~e^-230)
        from gausslind import cosmology
        ps = np.asarray(ps, dtype=float)
        start = self._start(ps)
        intervals = record_intervals(monkeypatch, "_efold_interval")
        counts, states = [], []
        for efolds in (100.0, 300.0):
            intervals.clear()
            z, powers = cosmology._efold_response(*start, math.exp(-efolds), ps)
            counts.append(len(intervals))
            states.append(self._flat(z))
        assert counts == [100, 300]
        assert all(h == 1.0 for _, h in intervals)
        # the scaled state z = x^P y stays far inside the range of doubles,
        # where y itself passes it (|y| up to e^(300 max P))
        assert all(np.max(np.abs(z)) < 1e10 for z in states)

    def test_scaled_state_and_powers(self, monkeypatch):
        # at x = 1 the scaled state is the state itself, with no interval;
        # P, in the shapes of (y, a), is 2, 3, 4 on the rows of (g, F_i),
        # plus cF = max(p - 8, 0) on each F_i, c1 = max(p - 2, 0) on a1
        # and c1 + cF on a2
        from gausslind import cosmology
        ps = np.array([0.5, 5.3, 9.9])
        start = self._start(ps)
        intervals = record_intervals(monkeypatch, "_efold_interval")
        z, powers = cosmology._efold_response(*start, 1.0, ps)
        assert not intervals
        c_f, c_1 = [0.0, 0.0, 1.9], [0.0, 3.3, 7.9]
        want = (np.add.outer([2.0, 3.0, 4.0], [0.0, *c_f]), np.array([c_1, np.add(c_1, c_f)]))
        for got, w in zip(powers, want):
            assert got.shape == w.shape
            np.testing.assert_allclose(got, w, rtol=1e-15, atol=0.0)
        assert all(np.array_equal(got, w) for got, w in zip(z, start))

    def test_tail_failure_raises(self, monkeypatch):
        # a tolerance no Chebyshev tail meets: the first e-fold halves
        # _CHEB_HALVINGS times, then the phase fails
        from gausslind import cosmology
        start = self._start(self.PS[:2])
        monkeypatch.setattr(cosmology, "TRANSPORT_RTOL", 1e-30)
        intervals = record_intervals(monkeypatch, "_efold_interval")
        with pytest.raises(StepFailureError, match="e-fold collocation.*halvings"):
            cosmology._efold_response(*start, 1e-3, self.PS[:2])
        assert intervals == [(0.0, 0.5 ** i) for i in range(cosmology._CHEB_HALVINGS + 1)]

    @pytest.mark.parametrize("field", ["F", "a2"])
    def test_non_finite_value_raises(self, field):
        # an infinite start: in a block it fails every halving of the first
        # interval, in a2 the check of the end state
        from gausslind import cosmology
        ps = self.PS[:3]
        y, a = self._start(ps)
        if field == "F":
            y[:, 1:] *= math.inf  # the blocks after g
        else:
            a[1] *= math.inf
        with pytest.raises(StepFailureError):
            cosmology._efold_response(y, a, 1e-3, ps)

    def test_integrations_release_their_buffers(self):
        # the compiled integrator keeps a reference to every callback it is
        # given; each integration cuts what its callback holds when it ends.
        # The transport route hands it none; the tests' DOP853 reference
        # (the response of _start and this class's reference) does
        import gc
        for x in (3e-3, 2.0):
            discord_cosmo(x, -0.7, CosmoParams(0.0, 5.3, 0.1), "transport",
                          kGamma_over_kstar=np.array([0.1, 1.0]), p=np.array([5.3, 9.0]))
            self._start(np.array([5.3, 9.0]), x)
        self._reference(0.5)
        gc.collect()
        names = ("de_sitter_response.<locals>.rhs", "TestEfoldPhase._reference.<locals>.rhs")
        assert not [f for f in gc.get_objects()
                    if getattr(f, "__qualname__", None) in names]


class TestCollocateKernel:
    """One interval of `_collocate`, which solves for g12 alone, against the
    dense system of the three rows (`oracle.collocate_dense`), on the
    inputs of either phase."""

    P3 = np.array([0.5, 5.3, 9.2])  # cF = max(p - 8, 0) > 0 at 9.2
    P0 = np.array([])
    # (phase, start t, length h, p row): t = -x in conformal time, N in
    # e-folds; a last interval is cut short, and one too long fails its tail
    CASES = {
        "subhubble_x20": ("subhubble", -20.0, 2.0, P3),
        "subhubble_x1.5": ("subhubble", -1.5, 0.5, P3),
        "subhubble_cut_short": ("subhubble", -1.2, 0.2, P3),
        "subhubble_n0": ("subhubble", -20.0, 2.0, P0),
        "subhubble_too_long": ("subhubble", -20.0, 16.0, P3),
        "efold_N0": ("efold", 0.0, 1.0, P3),
        "efold_N40": ("efold", 40.0, 1.0, P3),  # a10 = 2 - x^2 rounds to 2
        "efold_cut_short": ("efold", 40.0, 0.37, P3),
        "efold_n0": ("efold", 0.0, 1.0, P0),
        "efold_too_long": ("efold", 0.0, 8.0, P3),
    }

    @staticmethod
    def _start(phase, t, ps):
        """The state (y, a) of the transport route at t."""
        from gausslind import cosmology
        if phase == "subhubble":
            return cosmology._subhubble_response(40.0, -t, ps)
        start = cosmology._subhubble_response(10.0, 1.0, ps)
        return cosmology._efold_response(*start, math.exp(-t), ps)[0] if t else start

    @staticmethod
    def _dense_inputs(phase, t, h, ps):
        """(a10, diag, src, weights) of the interval [t, t + h] in the dense
        form of `oracle.collocate_dense`, with the diagonal of the phase."""
        from gausslind import cosmology
        tau = (cosmology._chebyshev_operators()[0] + 1.0) * (0.5 * h)
        if phase == "subhubble":
            x = -t - tau
            src = np.power(x[:, None], 3.0 - ps)
            return 2.0 / (x * x) - 1.0, (0.0, 0.0, 0.0), src, (src, src)
        efolds = t + tau
        c_f, c_1 = np.maximum(ps - 8.0, 0.0), np.maximum(ps - 2.0, 0.0)
        src = np.exp(np.multiply.outer(efolds, ps - 8.0 - c_f) + np.multiply.outer(tau, c_f))
        weight = np.exp(np.multiply.outer(efolds, ps - 2.0 - c_1)
                        + np.multiply.outer(tau - h, c_1))
        return (2.0 - np.exp(-2.0 * efolds), (-2.0, -3.0, -4.0), src,
                (weight, weight * np.exp(-h * c_f)))

    @staticmethod
    def _kernel(h, y, a10, diag, src, weights):
        """`_collocate` on a dense form's interval, in v_i = e^(-d_i tau) u_i,
        which has no diagonal, with u = e^(d h) v at the end."""
        from gausslind import cosmology
        tau = (cosmology._chebyshev_operators()[0] + 1.0) * (0.5 * h)
        d0, d1, d2 = diag

        def e(c):
            return np.exp(c * tau)

        step = cosmology._collocate(
            h, y, (2.0 * e(d1 - d0), a10 * e(d0 - d1), e(d2 - d1), 2.0 * a10 * e(d1 - d2)),
            src * e(-d2)[:, None], tuple(w * e(d0)[:, None] for w in weights))
        return None if step is None else (step[0] * np.exp(np.multiply(diag, h))[:, None],
                                          step[1])

    @staticmethod
    def _assert_close(got, want):
        # each block (a column of u) against its largest value, each
        # increment against itself
        (u, da), (u_w, da_w) = got, want
        assert u.shape == u_w.shape and da.shape == da_w.shape
        assert np.all(np.abs(u - u_w).max(axis=0) <= 1e-13 * np.abs(u_w).max(axis=0))
        assert np.all(np.abs(da - da_w) <= 1e-13 * np.abs(da_w))

    @pytest.mark.parametrize("case", CASES)
    def test_against_dense_solve(self, case):
        from gausslind import cosmology
        phase, t, h, ps = self.CASES[case]
        y, a = self._start(phase, t, ps)
        inputs = self._dense_inputs(phase, t, h, ps)
        want = oracle.collocate_dense(h, y, *inputs)
        got = self._kernel(h, y, *inputs)
        if case.endswith("too_long"):
            assert want is None and got is None
            return
        self._assert_close(got, want)
        # the phase's own interval, with its couplings written out
        if phase == "subhubble":
            step = cosmology._subhubble_interval(t, h, y, a, 3.0 - ps)
            want_step = want[0], a + want[1]
        else:
            c_f, c_1 = np.maximum(ps - 8.0, 0.0), np.maximum(ps - 2.0, 0.0)
            step = cosmology._efold_interval(t, h, y, a, ps, c_f, c_1)
            u = want[0].copy()
            u[:, 1:] *= np.exp(-h * c_f)
            want_step = u, np.exp(-h * np.stack((c_1, c_1 + c_f))) * a + want[1]
        self._assert_close(step, want_step)


def test_discord_stays_large_under_strong_decoherence():
    # the abstract's last sentence on the default 40x40 map: where the
    # purity is at most 1e-6 (1,276 cells), 708 still carry a bit of discord
    # or more
    x, theta, params, ps, couplings = default_map()
    res = discord_cosmo(x, theta, params, kGamma_over_kstar=couplings, p=ps)
    mixed = np.exp(-2.0 * res.log_sigma_zero) <= 1e-6
    assert (res.discord[mixed] >= 1.0).sum() >= 700
    assert abs(res.discord[mixed].max() - 103.68113203854749) <= 1e-9


class TestApproxPlane:
    """The approx route evaluates its whole (p, coupling) plane as one
    `_approx_block` call per block of p rows."""

    FIELDS = ("discord", "log_sigma_theta", "log_sigma_zero")

    @staticmethod
    def _maps():
        x, theta, params, ps, couplings = default_map()
        yield x, theta, params, ps, couplings
        yield (math.exp(-2.5), theta, replace(params, ellH=0.03), ps,
               10.0 ** np.linspace(-10.0, 6.0, 8))

    @staticmethod
    def _count(monkeypatch, name: str) -> list:
        """A list that grows by one per call of cosmology's binding name."""
        from gausslind import cosmology
        calls, real = [], getattr(cosmology, name)
        monkeypatch.setattr(cosmology, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
        return calls

    def test_plane_equals_row_calls(self):
        for x, theta, params, ps, couplings in self._maps():
            plane = discord_cosmo(x, theta, params, kGamma_over_kstar=couplings, p=ps)
            assert plane.discord.shape == (len(ps), len(couplings))
            for i, p in enumerate(ps.tolist()):
                row = discord_cosmo(x, theta, params, kGamma_over_kstar=couplings, p=p)
                for field in self.FIELDS:
                    assert np.array_equal(getattr(plane, field)[i], getattr(row, field))

    def test_stacked_tables_equal_each_table(self):
        # the plane's coefficients are each table's own float arithmetic
        x, theta, params, ps, couplings = default_map()
        kap2 = np.array(_kap2_row(params, couplings))
        tables = [asymptotic_coefficients(replace(params, p=p)) for p in ps.tolist()]
        stack = asymptotic_coefficients(params, ps)
        for field in fields(stack):
            column = getattr(stack, field.name)
            assert column.shape == (len(ps), 1)
            assert np.array_equal(column[:, 0], [getattr(t, field.name) for t in tables])
        plane = np.array(sigma0_sq_coefficients(stack, kap2))
        coeffs, exps = _approx_terms(stack, kap2)
        for i, t in enumerate(tables):
            assert np.array_equal(plane[:, i], sigma0_sq_coefficients(t, kap2))
            row_coeffs, row_exps = _approx_terms(t, kap2)
            assert np.array_equal(coeffs[:, :, i], row_coeffs)
            assert np.array_equal(exps[:, :, i, 0], row_exps)

    @pytest.mark.parametrize("n_p", [4, 40])
    def test_three_logsumexp_calls_per_map(self, monkeypatch, n_p):
        x, theta, params, ps, couplings = default_map()
        calls = self._count(monkeypatch, "logsumexp")
        discord_cosmo(x, theta, params, kGamma_over_kstar=couplings, p=ps[:n_p])
        assert len(calls) == 3

    @pytest.mark.parametrize("budget, blocks", [(7 * 40, 6), (1, 1600)])
    def test_blocks_do_not_change_values(self, monkeypatch, budget, blocks):
        # 7 rows a block splits the 40 rows 7+7+7+7+7+5; a budget of one
        # cell cuts each row into 40 pieces
        from gausslind import cosmology
        x, theta, params, ps, couplings = default_map()
        whole = discord_cosmo(x, theta, params, kGamma_over_kstar=couplings, p=ps)
        monkeypatch.setattr(cosmology, "PLANE_BLOCK_CELLS", budget)
        calls = self._count(monkeypatch, "logsumexp")
        assemblies = self._count(monkeypatch, "_discord_from_logs")
        split = discord_cosmo(x, theta, params, kGamma_over_kstar=couplings, p=ps)
        assert (len(calls), len(assemblies)) == (3 * blocks, blocks)
        for field in self.FIELDS:
            assert np.array_equal(getattr(split, field), getattr(whole, field))


class TestClosedFormRows:
    """The closed-form routes do their p-only work once per p row: one
    coefficient table per approx block, and one source power per node of
    an exact row."""

    @pytest.mark.parametrize("p0", [2.0, 4.0, 5.0, 8.0])
    @pytest.mark.parametrize("at", [0, 2])
    def test_singular_p_in_row_named(self, p0, at):
        ps = [0.5, 3.3, 6.1]
        ps[at] = p0
        with pytest.raises(SingularExponentError, match=f"p = {p0} is within"):
            asymptotic_coefficients(CosmoParams(1.0, 0.5, 0.1), np.array(ps))

    @pytest.mark.parametrize("p", [[math.nan], [1.0, math.inf], -math.inf])
    def test_non_finite_p_rejected(self, p):
        with pytest.raises(DomainError, match="p must be finite"):
            asymptotic_coefficients(CosmoParams(1.0, 0.5, 0.1), p)

    def test_scalar_p_is_a_float_table(self):
        params = CosmoParams(1.0, 0.5, 0.1)
        assert asymptotic_coefficients(params, 3.3) == \
            asymptotic_coefficients(replace(params, p=3.3))

    @pytest.mark.parametrize("budget, blocks", [(2 ** 16, 1), (7 * 40, 6)])
    def test_one_table_per_approx_block(self, monkeypatch, budget, blocks):
        from gausslind import cosmology
        x, theta, params, ps, couplings = default_map()
        monkeypatch.setattr(cosmology, "PLANE_BLOCK_CELLS", budget)
        calls, table = [], cosmology.asymptotic_coefficients
        monkeypatch.setattr(cosmology, "asymptotic_coefficients",
                            lambda *a, **kw: calls.append(1) or table(*a, **kw))
        discord_cosmo(x, theta, params, kGamma_over_kstar=couplings, p=ps)
        assert len(calls) == blocks

    def test_one_source_power_per_node(self, monkeypatch):
        from gausslind import cosmology
        nodes, powers = [], []
        node, power = cosmology._g11_node, cosmology._power_law
        monkeypatch.setattr(cosmology, "_g11_node",
                            lambda x, row: nodes.append(x) or node(x, row))
        monkeypatch.setattr(cosmology, "_power_law",
                            lambda expo, x: powers.append(x) or power(expo, x))
        couplings = np.array([0.1, 1.0, 3.0])
        dets = exact_open_det(0.5, CosmoParams(0.0, 2.1, 0.1), kGamma_over_kstar=couplings)
        assert len(set(powers)) == len(powers) == len(nodes) > 0
        assert sorted(powers) == sorted(nodes)
        monkeypatch.undo()
        assert dets.tolist() == [exact_open_det(0.5, CosmoParams(kg, 2.1, 0.1))
                                 for kg in couplings.tolist()]
