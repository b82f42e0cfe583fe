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

from conftest import count_rhs_calls, gauss_legendre_quad, generalized_squeezing_rhs


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
    so; evolve_open refuses such a tolerance instead."""

    def test_rtol_below_the_floor_rejected_before_integrating(self, monkeypatch):
        from gausslind import opensys

        def no_solve(*args, **kwargs):
            raise AssertionError("an integrator ran")

        monkeypatch.setattr(opensys, "solve_ivp", no_solve)
        for source in (None, lambda t: 0.1):
            for rtol in (1e-15, 0.0, -1e-10, math.nan):
                with pytest.raises(DomainError, match="floor"):
                    evolve_open(ModeFrequency.free(1.0), source, (0.0, 1.0), rtol=rtol)
        with pytest.raises(DomainError, match="floor"):
            evolve_de_sitter(10.0, 2.0, lambda eta: 0.1, rtol=1e-14)


class TestSampleContract:
    """A closed run and an open one take the same samples: t_eval lies
    within t_span and is strictly ordered along it, or evolve_open raises
    DomainError before integrating."""

    SOURCES = {"scalar": lambda t: 0.5, "closed": None}

    @pytest.mark.parametrize("path", SOURCES)
    @pytest.mark.parametrize("t_span, t_eval", [
        ((0.0, 1.0), [-0.5, 0.5]),  # before the start
        ((0.0, 1.0), [0.5, 2.0]),  # past the end
        ((0.0, 1.0), [1.0, 0.5]),  # against the direction of integration
        ((0.0, 1.0), [0.5, 0.5]),  # not strictly ordered
        ((1.0, 0.0), [0.2, 0.8]),  # against a backward span
        ((0.0, 1.0), [[0.5]]),  # not 1-D
        ((0.0, 1.0), [math.nan]),
    ])
    def test_bad_samples_rejected_before_integrating(self, monkeypatch, path, t_span, t_eval):
        from gausslind import opensys

        def no_solve(*args, **kwargs):
            raise AssertionError("an integrator ran")

        monkeypatch.setattr(opensys, "solve_ivp", no_solve)
        with pytest.raises(DomainError, match="t_eval"):
            evolve_open(ModeFrequency.free(1.0), self.SOURCES[path], t_span, t_eval=t_eval)

    @pytest.mark.parametrize("path", SOURCES)
    @pytest.mark.parametrize("t_span, t_eval", [((0.0, 1.0), [0.0, 0.5, 1.0]),
                                                ((1.0, 0.0), [1.0, 0.5, 0.0])])
    def test_samples_at_both_ends_run(self, path, t_span, t_eval):
        got = evolve_open(ModeFrequency.free(1.0), self.SOURCES[path], t_span, t_eval=t_eval)
        assert np.array_equal(got.times, t_eval)

    @pytest.mark.parametrize("path", SOURCES)
    def test_huge_span_checked_without_overflow(self, monkeypatch, path):
        # the grid of a free-preset evolve_closed from x = 1e300: a step
        # times the span overflows, and the check may not warn
        from gausslind import opensys

        def no_solve(*args, **kwargs):
            raise AssertionError("an integrator ran")

        monkeypatch.setattr(opensys, "solve_ivp", no_solve)
        t_eval = -np.geomspace(1e300, 1.0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AssertionError, match="an integrator ran"):
                evolve_open(ModeFrequency.free(1.0), self.SOURCES[path], (-1e300, -1.0),
                            t_eval=t_eval)
            with pytest.raises(DomainError, match="t_eval"):
                evolve_open(ModeFrequency.free(1.0), self.SOURCES[path], (-1e300, -1.0),
                            t_eval=t_eval[::-1])


@pytest.mark.parametrize("shape", [(1,), (3,), (0,), (2, 2)],
                         ids=["one", "row", "empty", "plane"])
@pytest.mark.parametrize("entry", ["evolve_open", "evolve_de_sitter"])
def test_array_source_rejected_before_integrating(monkeypatch, entry, shape):
    # a source returns a number: an array of any shape is refused at the
    # one probe call, before any integrator runs
    from gausslind import opensys

    def no_solve(*args, **kwargs):
        raise AssertionError("an integrator ran")

    monkeypatch.setattr(opensys, "solve_ivp", no_solve)
    calls = []

    def source(t):
        calls.append(t)
        return np.full(shape, 0.1)

    with pytest.raises(DomainError, match="number"):
        if entry == "evolve_open":
            evolve_open(ModeFrequency.free(1.0), source, (0.0, 1.0))
        else:
            evolve_de_sitter(10.0, 1.0, source)
    assert len(calls) == 1


def test_one_source_call_per_rhs_call(monkeypatch):
    # one source call per RHS evaluation, plus the shape probe, counted
    # through the callbacks handed to solve_ivp
    from gausslind import opensys
    rhs_calls = count_rhs_calls(monkeypatch, (opensys, "solve_ivp"))
    calls = []

    def source(t):
        calls.append(t)
        return 0.1

    evolve_open(ModeFrequency.free(1.0), source, (0.0, 2.0))
    assert len(rhs_calls) > 0 and len(rhs_calls) == len(calls) - 1
