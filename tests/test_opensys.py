import math
import warnings

import numpy as np
import pytest

from gausslind.closed import (
    ModeFrequency,
    ModeState,
    integrate_mode_function,
    transport_rhs_closed,
)
from gausslind.cosmology import (
    CosmoParams,
    cosmo_kernel,
    de_sitter_covariance_closed,
    de_sitter_frequency,
    de_sitter_mode,
    evolve_de_sitter,
    exact_open_covariance,
)
from gausslind.errors import (
    BelowHeisenbergError,
    DegenerateSqueezingError,
    DomainError,
    StepFailureError,
)
from gausslind.opensys import (
    GreenIntegrals,
    det_rhs,
    evolve_open,
    green_covariance,
    transport_rhs_open,
)
from gausslind.symplectic import (
    CovarianceBlock,
    SqueezingState,
    covariance_from_squeezing,
    particle_statistics,
)

from conftest import gauss_legendre_quad, generalized_squeezing_rhs


def constant_kernel(s0: float):
    return lambda t: s0


def zero_kernel(t: float) -> float:
    return 0.0


class TestOpenRhs:
    def test_zero_source_reduces_to_closed(self, rng):
        freq = ModeFrequency(1.3, lambda k, t: k * k * (1.0 + 0.2 * math.cos(t)))
        for _ in range(10):
            y = (rng.uniform(0.5, 4.0), rng.uniform(-1, 1), rng.uniform(0.5, 4.0))
            t = rng.uniform(0.0, 5.0)
            assert transport_rhs_open(y, freq, zero_kernel(t), t) \
                == transport_rhs_closed(y, freq, t)
            assert transport_rhs_open(y, freq, None, t) \
                == transport_rhs_closed(y, freq, t)

    def test_source_feeds_momentum_variance_only(self):
        freq = ModeFrequency.free(2.0)
        d11, d12, d22 = transport_rhs_open(
            CovarianceBlock.vacuum(), freq, constant_kernel(0.3)(0.0), 0.0)
        assert d11 == 0.0 and d12 == 0.0
        assert abs(d22 - 2.0 * 0.3) < 1e-15  # k * S

    def test_det_rhs(self, rng):
        kern = constant_kernel(0.5)
        assert det_rhs(CovarianceBlock.vacuum(), zero_kernel(0.0)) == 0.0
        assert det_rhs(CovarianceBlock.vacuum(), None) == 0.0
        b = CovarianceBlock(3.0, 1.0, 1.0)
        assert det_rhs(b, kern(0.0), k=2.0) == 2.0 * 0.5 * 3.0
        assert det_rhs(b, kern(0.0), k=2.0) > 0.0

    def test_det_rhs_consistent_with_transport(self, rng):
        freq = ModeFrequency(1.0, lambda k, t: k * k * (1.0 - 0.5 * math.sin(t)))
        kern = constant_kernel(0.7)
        for _ in range(20):
            g11, g22 = rng.uniform(0.5, 5.0, 2)
            g12 = rng.uniform(-0.8, 0.8)
            y = (g11, g12, g22)
            t = rng.uniform(0.0, 6.0)
            d11, d12, d22 = transport_rhs_open(y, freq, kern(t), t)
            implied = d11 * g22 + g11 * d22 - 2.0 * g12 * d12
            assert abs(implied - det_rhs(y, kern(t))) < 1e-12 * max(1.0, implied)


class TestGeneralizedSqueezing:
    def test_zero_source_reduction(self):
        freq = de_sitter_frequency()
        s = SqueezingState(0.5, -0.3, 1.0)
        dlam, dr, dphi = generalized_squeezing_rhs(s, freq, None, -2.0)
        assert dlam == 0.0
        from gausslind.closed import squeezing_rhs_closed
        dr0, dphi0 = squeezing_rhs_closed(0.5, -0.3, freq, -2.0)
        assert dr == dr0 and dphi == dphi0

    def test_area_growth_nonnegative(self, rng):
        freq = ModeFrequency.free(1.0)
        kern = constant_kernel(0.4)
        for _ in range(50):
            s = SqueezingState(rng.uniform(0.01, 4.0), rng.uniform(-1.5, 1.5),
                               rng.uniform(1.0, 20.0))
            dlam, _, _ = generalized_squeezing_rhs(s, freq, kern(0.0), 0.0)
            assert dlam >= 0.0

    def test_r_floor(self):
        with pytest.raises(DegenerateSqueezingError):
            generalized_squeezing_rhs(SqueezingState(1e-8, 0.0, 1.0),
                                      ModeFrequency.free(1.0), None, 0.0)

    def test_open_de_sitter_cross_engine(self):
        # integrate (lam, r, phi) directly and compare the reconstructed
        # covariance against the transport engine
        from scipy.integrate import solve_ivp

        # coupling weak enough that the squeezing amplitude never drops
        # through the engine's r floor (strong sources round the state
        # off and genuinely degenerate this parameterization)
        params = CosmoParams(kGamma_over_kstar=0.3, p=2.5, ellH=0.1)
        freq = de_sitter_frequency()
        kern = cosmo_kernel(params)
        x0, x1 = 5.0, 0.05
        from gausslind.symplectic import squeezing_from_covariance
        seed = squeezing_from_covariance(de_sitter_covariance_closed(x0))

        def rhs(t, y):
            return generalized_squeezing_rhs(
                SqueezingState(max(y[1], 2e-6), y[2], max(y[0], 1.0)),
                freq, kern(t), t)

        sol = solve_ivp(rhs, (-x0, -x1), [1.0, seed.r, seed.phi],
                        method="DOP853", rtol=1e-11, atol=1e-13)
        lam, r, phi = sol.y[:, -1]
        got = covariance_from_squeezing(SqueezingState(r, phi, lam))

        traj = evolve_de_sitter(x0, x1, kern)
        want = traj.block(len(traj) - 1)
        for a, b in ((got.g11, want.g11), (got.g12, want.g12), (got.g22, want.g22)):
            assert abs(a - b) < 1e-5 * max(abs(b), 1.0)
        assert abs(lam - traj.det[-1]) < 1e-5 * traj.det[-1]


class TestGreenCovariance:
    def test_zero_kernel(self):
        freq = ModeFrequency.free(1.0)
        traj = integrate_mode_function(freq, 0.0, 10.0, ModeState.vacuum(1.0, 0.0))
        g = green_covariance(traj, zero_kernel, 10.0)
        assert g.I == 0.0 and g.J == 0.0 and g.K == 0.0

    def test_constant_kernel_against_fixed_order_gauss(self):
        # free oscillator: Im[v(t')v*(T)] = sin(k(T - t')), so
        # I = k s0 int sin^2(k(T-t')) dt' -- checked against an
        # independent composite Gauss-Legendre rule
        k, s0, T = 1.3, 0.25, 7.0
        freq = ModeFrequency.free(k)
        traj = integrate_mode_function(freq, 0.0, T, ModeState.vacuum(k, 0.0))
        got = green_covariance(traj, constant_kernel(s0), T)
        want_i = k * s0 * gauss_legendre_quad(
            lambda tp: math.sin(k * (T - tp)) ** 2, 0.0, T)
        want_j = s0 * gauss_legendre_quad(
            lambda tp: math.sin(k * (T - tp)) * k * math.cos(k * (T - tp)), 0.0, T)
        want_k = (1.0 / k) * s0 * gauss_legendre_quad(
            lambda tp: (k * math.cos(k * (T - tp))) ** 2, 0.0, T)
        assert abs(got.I - want_i) < 1e-9 * max(1.0, want_i)
        assert abs(got.J - want_j) < 1e-9
        assert abs(got.K - want_k) < 1e-9 * max(1.0, want_k)

    def test_cauchy_schwarz(self):
        k, T = 0.7, 12.0
        freq = ModeFrequency.free(k)
        traj = integrate_mode_function(freq, 0.0, T, ModeState.vacuum(k, 0.0))
        kern = lambda t: 0.1 * (1.0 + math.sin(t) ** 2)
        g = green_covariance(traj, kern, T)
        assert g.I >= 0.0 and g.K >= 0.0
        assert g.I * g.K >= g.J ** 2 * (1.0 - 1e-9)

    def test_de_sitter_kernel_matches_exact_forms(self):
        # Green quadrature over the numerically integrated mode function
        # vs the incomplete-gamma closed forms
        params = CosmoParams(kGamma_over_kstar=10.0, p=2.1, ellH=0.1)
        freq = de_sitter_frequency()
        kern = cosmo_kernel(params)
        x0 = params.x_coupling_on
        traj = integrate_mode_function(freq, -x0, -0.05, de_sitter_mode(x0),
                                       rtol=1e-12, atol=1e-14)
        for x in (0.5, 0.1, 0.05):
            g = green_covariance(traj, kern, -x, quad_tol=1e-12)
            st = traj.state(-x)
            assembled = CovarianceBlock(
                g11=abs(st.v) ** 2 + g.I,
                g12=(st.v * st.dv.conjugate()).real + g.J,
                g22=abs(st.dv) ** 2 + g.K,
            )
            want = exact_open_covariance(x, params)
            for a, b in ((assembled.g11, want.g11), (assembled.g12, want.g12),
                         (assembled.g22, want.g22)):
                assert abs(a - b) < 1e-6 * abs(b)

    def test_green_integrals_validate(self):
        with pytest.raises(DomainError):
            GreenIntegrals(I=1.0, J=5.0, K=1.0)  # violates Cauchy-Schwarz

    def test_green_integrals_negative_diagonal(self):
        with pytest.raises(DomainError, match="negative diagonal"):
            GreenIntegrals(I=-1.0, J=0.0, K=1.0)

    def test_quadrature_short_of_tolerance(self):
        # a barely integrable spike: quad cannot meet 1e-10 on it
        k, T = 0.7, 12.0
        traj = integrate_mode_function(ModeFrequency.free(k), 0.0, T,
                                       ModeState.vacuum(k, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy's IntegrationWarning
            with pytest.raises(StepFailureError, match="error estimate"):
                green_covariance(traj, lambda t: abs(t - 3.3) ** -0.999, T)


class TestEvolveOpen:
    def test_zero_kernel_equals_closed(self):
        freq = de_sitter_frequency()
        ic = de_sitter_covariance_closed(50.0)
        xg = np.geomspace(50.0, 0.1, 11)
        a = evolve_open(freq, None, (-50.0, -0.1), ic=ic, t_eval=-xg)
        b = evolve_open(freq, zero_kernel, (-50.0, -0.1), ic=ic,
                        t_eval=-xg)
        np.testing.assert_allclose(a.g11, b.g11, rtol=1e-12)
        np.testing.assert_allclose(a.g22, b.g22, rtol=1e-12)
        for i, x in enumerate(xg):
            want = de_sitter_covariance_closed(float(x))
            assert abs(a.g11[i] - want.g11) < 1e-9 * abs(want.g11) + 1e-9

    def test_sub_heisenberg_ic_rejected(self):
        with pytest.raises(BelowHeisenbergError):
            evolve_open(ModeFrequency.free(1.0), lambda t: 0.1, (0.0, 1.0),
                        ic=CovarianceBlock(1.0, 0.0, 0.5))  # det 0.5

    def test_weak_coupling_continuity(self):
        # S scaled by 1e-12 stays within ~1e-12 of the closed run
        params = CosmoParams(kGamma_over_kstar=1e-6, p=2.5, ellH=0.1)
        traj = evolve_de_sitter(params.x_coupling_on, 0.1, cosmo_kernel(params))
        want = de_sitter_covariance_closed(0.1)
        got = traj.block(len(traj) - 1)
        assert abs(got.g11 - want.g11) < 1e-9 * want.g11
        assert abs(traj.det[-1] - 1.0) < 1e-9

    def test_purity_monotone(self):
        params = CosmoParams(kGamma_over_kstar=3.0, p=3.3, ellH=0.1)
        traj = evolve_de_sitter(params.x_coupling_on, 0.02, cosmo_kernel(params),
                                x_eval=np.geomspace(10.0, 0.02, 40))
        pur = traj.purity
        assert np.all(pur <= 1.0 + 1e-12)
        assert np.all(np.diff(pur) <= 1e-12)

    def test_det_matches_integral_form(self):
        # det(t) - det(t0) = int k S g11 dt' along the trajectory
        params = CosmoParams(kGamma_over_kstar=2.0, p=2.6, ellH=0.1)
        xg = np.geomspace(10.0, 0.05, 200)
        source = cosmo_kernel(params)
        traj = evolve_de_sitter(params.x_coupling_on, 0.05, source, x_eval=xg)
        integrand = np.array([source(-float(x)) for x in xg]) * traj.g11
        integral = np.trapezoid(integrand, x=-xg)  # d eta = -dx
        assert abs((traj.det[-1] - 1.0) - integral) < 2e-3 * integral

    def test_randomized_open_runs_purity_and_statistics(self, rng):
        # criterion-10 style property on generic frequencies and kernels
        for _ in range(20):
            k = rng.uniform(0.5, 2.0)
            a_mod = rng.uniform(0.0, 0.8)
            freq = ModeFrequency(k, lambda kk, t, a=a_mod: kk * kk * (1.0 + a * math.sin(t)))
            s0 = rng.uniform(0.0, 0.5)
            kern = lambda t, s=s0: s * (1.0 + math.cos(t) ** 2)
            traj = evolve_open(freq, kern, (0.0, 8.0),
                               t_eval=np.linspace(0.0, 8.0, 30),
                               rtol=1e-12, atol=1e-14)
            pur = traj.purity
            assert np.all(np.diff(pur) <= 1e-10)
            for i in range(0, 30, 7):
                b = traj.block(i)
                stats = particle_statistics(b)
                lhs = 4.0 * abs(stats.c) ** 2
                rhs = (2.0 * stats.n + 1.0) ** 2 - traj.det[i]
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class TestRtolFloor:
    """solve_ivp raises an rtol below 100 eps to that floor without saying
    so; evolve_open refuses such a tolerance instead.  The response
    integration runs on scipy's compiled DOP853, which has no such floor."""

    def test_rtol_below_the_floor_rejected_before_integrating(self, monkeypatch):
        from gausslind import opensys
        from gausslind.errors import DomainError

        def no_solve(*args, **kwargs):
            raise AssertionError("an integrator ran")

        monkeypatch.setattr(opensys, "solve_ivp", no_solve)
        monkeypatch.setattr(opensys, "ode", no_solve)
        for source in (None, lambda t: 0.1, lambda t: np.full(3, 0.1)):
            for rtol in (1e-15, math.nan):
                with pytest.raises(DomainError):
                    evolve_open(ModeFrequency.free(1.0), source, (0.0, 1.0), rtol=rtol)

    def test_batch_at_the_floor_runs(self):
        # 16 amplitudes at rtol 4 RTOL_FLOOR: each block is held to
        # rtol / sqrt(17), below the floor, and no warning is raised
        from gausslind.opensys import RTOL_FLOOR
        rtol = 4.0 * RTOL_FLOOR
        amplitudes = np.linspace(0.1, 1.6, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            response = evolve_open(ModeFrequency.free(1.0), lambda t: amplitudes, (0.0, 1.0),
                                   rtol=rtol)
        cells = response.cells([1.0])
        assert cells.det.shape == (16, 1, 1)
        for i in (0, 15):
            one = evolve_open(ModeFrequency.free(1.0), lambda t: amplitudes[i], (0.0, 1.0),
                              t_eval=[1.0], rtol=rtol)
            for field in ("g11", "g12", "g22", "det"):
                np.testing.assert_allclose(getattr(cells, field)[i, 0], getattr(one, field),
                                           rtol=1e-10, atol=1e-12)

    def test_empty_batch_rejected(self):
        from gausslind.errors import DomainError
        with pytest.raises(DomainError):
            evolve_open(ModeFrequency.free(1.0), lambda t: np.zeros(0), (0.0, 1.0))

    def test_plane_of_amplitudes_rejected(self):
        from gausslind.errors import DomainError
        with pytest.raises(DomainError, match="1-D"):
            evolve_open(ModeFrequency.free(1.0), lambda t: np.zeros((2, 2)), (0.0, 1.0))


class TestResponseFailure:
    """The compiled integrator reports a failure as a UserWarning plus a
    return code; evolve_open raises StepFailureError instead, and lets no
    warning out."""

    def test_step_cap(self, monkeypatch):
        from gausslind import opensys
        monkeypatch.setattr(opensys, "RESPONSE_MAX_STEPS", 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailureError, match="larger nsteps is needed"):
                evolve_de_sitter(10.0, 1e-3, lambda eta: np.array([1.0, 2.0]))

    def test_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailureError):
                evolve_open(ModeFrequency.free(1.0), lambda t: np.array([1e300]), (0.0, 5.0))

    def test_source_error_is_raised_at_once(self):
        calls = []

        def source(t):
            calls.append(t)
            if len(calls) > 50:
                raise DomainError("source failed")
            return np.array([0.1])

        with pytest.raises(DomainError, match="source failed"):
            evolve_open(ModeFrequency.free(1.0), source, (0.0, 100.0))
        assert len(calls) == 51


class TestResponseFlow:
    """The response RHS keeps the closed flow as a matrix across calls and
    refreshes only its t-dependent entries; it must stay the closed flow
    of transport_rhs_open at every t."""

    @pytest.mark.parametrize("freq, t_span, times", [
        # omega^2 > 0 at eta = -5 and -3 (sub-Hubble), < 0 at -0.05 (super-Hubble)
        (de_sitter_frequency(), (-10.0, -0.01), (-5.0, -0.05, -3.0)),
        (ModeFrequency.free(2.5), (0.0, 1.0), (0.3, 0.9)),
    ], ids=["de_sitter", "free_2.5"])
    def test_refreshed_flow_is_the_closed_flow(self, monkeypatch, freq, t_span, times):
        from gausslind import opensys
        captured = []
        dop853 = opensys._dop853

        def capturing(rhs, *args, **kwargs):
            captured.append(rhs)
            return dop853(rhs, *args, **kwargs)

        monkeypatch.setattr(opensys, "_dop853", capturing)
        # two zero amplitudes: the closed block and F_1, F_2 are three columns
        evolve_open(freq, lambda t: np.zeros(2), t_span)
        (rhs,) = captured
        y = np.zeros(9 + 4)
        y[:9] = np.eye(3).ravel()
        for t in times:
            # flow @ identity: equal values are equal bits for every nonzero
            # entry; only the sign of a zero can differ, which no product sees
            got = rhs(t, y)[:9].reshape(3, 3)
            want = np.array([transport_rhs_open(e, freq, None, t)
                             for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]).T
            assert np.array_equal(got, want)

    def test_k_not_one_matches_scalar_runs(self):
        # de Sitter at k = 2.5: omega^2 changes sign at eta = -0.566
        freq = ModeFrequency(2.5, lambda k, eta: k * k - 2.0 / (eta * eta))
        expo = np.array([-1.5, 0.5, 2.5])
        t_span, t_eval = (-4.0, -0.2), (-1.0, -0.2)
        response = evolve_open(freq, lambda eta: 2.0 * (1.0 / -eta) ** expo, t_span,
                               t_eval=t_eval)
        kap2 = [1e-3, 0.7]
        cells = response.cells(kap2)
        for i, e in enumerate(expo.tolist()):
            for j, c in enumerate(kap2):
                one = evolve_open(freq, lambda eta: c * 2.0 * (1.0 / -eta) ** e, t_span,
                                  t_eval=t_eval)
                for field in ("g11", "g12", "g22", "det"):
                    np.testing.assert_allclose(getattr(cells, field)[i, j], getattr(one, field),
                                               rtol=1e-9)


def test_one_source_call_per_rhs_call(monkeypatch):
    # one source call per RHS evaluation, plus the shape probe; a response
    # RHS refreshes the closed flow from one transport_rhs_open call
    from gausslind import opensys
    calls = {"source": 0, "rhs": 0}
    rhs = opensys.transport_rhs_open

    def counted(*args):
        calls["rhs"] += 1
        return rhs(*args)

    monkeypatch.setattr(opensys, "transport_rhs_open", counted)
    for value in (0.1, np.array([0.1, 0.2, 0.3, 0.4])):
        calls.update(source=0, rhs=0)

        def source(t):
            calls["source"] += 1
            return value

        evolve_open(ModeFrequency.free(1.0), source, (0.0, 2.0))
        assert calls["rhs"] > 0 and calls["rhs"] == calls["source"] - 1
