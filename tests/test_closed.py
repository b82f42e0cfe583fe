import math

import numpy as np

from gausslind.closed import (
    ModeFrequency,
    ModeState,
    transport_rhs_closed,
    wigner_ellipse,
)
from gausslind.cosmology import (
    de_sitter_covariance_closed,
    de_sitter_frequency,
    de_sitter_mode,
)
from gausslind.opensys import evolve_open
from gausslind.symplectic import (
    CovarianceBlock,
    SqueezingState,
    covariance_from_squeezing,
    squeezing_from_covariance,
)

from conftest import generalized_squeezing_rhs, third_order_residual
import oracle


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


class TestThreeEngineAgreement:
    """The transport engine, the mode function (`oracle.mode_covariance`)
    and the closed squeezing equations (`conftest.generalized_squeezing_rhs`
    at S = 0) on one frequency, the latter two integrated on `oracle.dop853`
    as references."""

    def test_mode_reference_against_closed_form(self):
        # the reference itself, from the closed mode function at x = 100
        got = oracle.mode_covariance(de_sitter_frequency(), de_sitter_mode(100.0), [-1.0])[0]
        want = de_sitter_covariance_closed(1.0)
        assert np.abs(got / [want.g11, want.g12, want.g22] - 1.0).max() < 1e-12

    def test_generic_smooth_frequency(self):
        # omega^2 sweeps through zero: k^2 (1 - 2.5 sin^2 t)
        k = 1.0
        freq = ModeFrequency(k, lambda kk, t: kk * kk * (1.0 - 2.5 * math.sin(t) ** 2))
        t0, t1 = 0.0, 6.0
        ts = np.linspace(0.5, t1, 12)

        ref = oracle.mode_covariance(freq, ModeState(1.0 + 0.0j, -1j * k, t0), ts)
        ct = evolve_open(freq, None, (t0, t1), t_eval=ts)

        # the squeezing equations, seeded once r is measurably nonzero
        seed = squeezing_from_covariance(CovarianceBlock(*ref[0]))
        rr_pp = oracle.dop853(
            lambda t, y: generalized_squeezing_rhs(SqueezingState(y[0], y[1], 1.0),
                                                   freq, None, t)[1:],
            [seed.r, seed.phi], ts[0], ts[1:], 1e-13, 1e-15, 0.0)
        sq = [covariance_from_squeezing(SqueezingState(r, phi, 1.0)) for r, phi in rr_pp]

        bound = 1e-6 * np.maximum(np.abs(ref), 1.0)
        assert (np.abs(np.column_stack([ct.g11, ct.g12, ct.g22]) - ref) < bound).all()
        assert (np.abs([[b.g11, b.g12, b.g22] for b in sq] - ref[1:]) < bound[1:]).all()


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
