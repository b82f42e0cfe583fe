import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from gausslind import specfun
from gausslind.errors import BranchCutError, DomainError, PoleOrderError
from gausslind.selfcheck import reference_upper_gamma
from gausslind.specfun import (
    oscillatory_moment,
    oscillatory_moment_limits,
    upper_incomplete_gamma,
)

import oracle
from conftest import oscillatory_moment_quad


class TestUpperIncompleteGamma:
    def test_order_one_is_exponential(self):
        z = 2j
        got = upper_incomplete_gamma(1.0, z)
        assert abs(got - cmath.exp(-z)) < 1e-14

    def test_zero_argument_positive_order(self):
        # Gamma(2.5, 0) = Gamma(2.5)
        assert abs(upper_incomplete_gamma(2.5, 0.0) - 1.3293403881791370) < 1e-13

    def test_negative_order_imaginary_argument(self):
        ref = reference_upper_gamma(-1.1, 2j)
        got = upper_incomplete_gamma(-1.1, 2j)
        assert abs(got - ref) / abs(ref) < 1e-12

    @pytest.mark.parametrize("a", [-9.5, -5.3, -2.5, -1.1, -0.5, 0.5, 2.5, 7.7, 10.0])
    @pytest.mark.parametrize("absz", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e4])
    def test_imaginary_axis_battery(self, a, absz):
        for sign in (1.0, -1.0):
            z = sign * 1j * absz
            ref = reference_upper_gamma(a, z)
            got = upper_incomplete_gamma(a, z)
            assert abs(got - ref) / abs(ref) < 1e-12

    def test_generic_argument_battery(self):
        worst = 0.0
        for a in (-7.3, -0.5, 3.5):
            for absz in (1e-2, 1.0, 30.0):
                for ph in (0.25 * math.pi, 0.75 * math.pi, -0.6 * math.pi):
                    z = absz * cmath.exp(1j * ph)
                    ref = reference_upper_gamma(a, z)
                    got = upper_incomplete_gamma(a, z)
                    worst = max(worst, abs(got - ref) / abs(ref))
        assert worst < 1e-12

    def test_recurrence(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            a = rng.uniform(-9.9, 9.9)
            if abs(a - round(a)) < 1e-2:
                continue
            z = rng.uniform(0.01, 50.0) * cmath.exp(1j * rng.uniform(-2.8, 2.8))
            lhs = upper_incomplete_gamma(a + 1.0, z)
            rhs = a * upper_incomplete_gamma(a, z) + z ** a * cmath.exp(-z)
            scale = max(abs(lhs), abs(z ** a * cmath.exp(-z)), 1e-300)
            assert abs(lhs - rhs) / scale < 1e-11

    def test_pole_order_rejected(self):
        with pytest.raises(PoleOrderError):
            upper_incomplete_gamma(0.0, 1.0 + 1j)
        with pytest.raises(PoleOrderError):
            upper_incomplete_gamma(-3.0 + 1e-12, 2j)

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchCutError):
            upper_incomplete_gamma(0.5, -2.0 + 0.0j)

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_order_rejected(self, a):
        for z in (0.0, 2j):
            with pytest.raises(DomainError, match="finite"):
                upper_incomplete_gamma(a, z)

    def test_zero_argument_negative_order_rejected(self):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(-0.5, 0.0)

    @pytest.mark.parametrize("a, z", [(-7.9, -2e-300j), (200.0, 1000j)],
                             ids=["series", "continued_fraction"])
    def test_prefactor_overflow_raises_domain_error(self, a, z):
        # z^a e^-z beyond the range of doubles raised a bare OverflowError
        with pytest.raises(DomainError, match="overflows a double"):
            upper_incomplete_gamma(a, z)


class TestOscillatoryMoment:
    def test_order_zero_elementary(self):
        x, ellh = 0.7, 0.1
        want = (cmath.exp(2j * x) - cmath.exp(2j / ellh)) / 2j
        got = oscillatory_moment(0.0, x, ellh)
        assert abs(got - want) < 1e-13

    @pytest.mark.parametrize("alpha,x,ellh", [
        (1.0 - 2.1, 0.01, 0.1),
        (3.0 - 6.1, 0.5, 0.1),
        (2.0 - 9.3, 2.0, 0.25),
        (1.0 - 0.5, 5.0, 0.4),
    ])
    def test_against_quadrature(self, alpha, x, ellh):
        closed = oscillatory_moment(alpha, x, ellh)
        ref = oscillatory_moment_quad(alpha, x, ellh)
        assert abs(closed - ref) / max(abs(ref), 1e-30) < 1e-10

    def test_limits_by_small_x_extrapolation(self):
        # subtracting the leading series terms from the quadrature at
        # small x recovers the constants
        alpha, ellh = 1.0 - 2.1, 0.1
        lim_re, lim_im = oscillatory_moment_limits(alpha, ellh)
        x = 1e-4
        m = oscillatory_moment_quad(alpha, x, ellh)
        series_re = x ** (1 + alpha) * (1.0 / (alpha + 1.0) - 2.0 * x * x / (3.0 + alpha))
        series_im = x ** (2 + alpha) * (2.0 / (2.0 + alpha))
        assert abs((m.real - series_re) - lim_re) < 1e-10 * max(1.0, abs(lim_re))
        assert abs((m.imag - series_im) - lim_im) < 1e-10 * max(1.0, abs(lim_im))

    def test_derivative_fundamental_theorem(self):
        alpha, ellh = -1.7, 0.2
        h = 1e-6
        for x in (0.3, 1.7, 4.0):
            num = (oscillatory_moment(alpha, x + h, ellh)
                   - oscillatory_moment(alpha, x - h, ellh)) / (2.0 * h)
            want = cmath.exp(2j * x) * x ** alpha
            assert abs(num - want) / abs(want) < 1e-6

    def test_conjugation_symmetry(self):
        # conj(M_alpha) is the moment with e^{-2ix'}
        alpha, x, ellh = -2.3, 0.4, 0.2
        m = oscillatory_moment(alpha, x, ellh)
        ref = oscillatory_moment_quad(alpha, x, ellh)
        assert abs(m.conjugate() - ref.conjugate()) < 1e-10 * abs(ref)

    def test_limits_are_real(self):
        for p in (0.5, 2.1, 3.7, 6.1, 9.3):
            for off in (1.0, 2.0, 3.0):
                lim_re, lim_im = oscillatory_moment_limits(off - p, 0.1)
                assert math.isfinite(lim_re) and math.isfinite(lim_im)

    @pytest.mark.parametrize("alpha,x,ellh", [
        (1.0 - 2.1, 0.01, 0.1),
        (3.0 - 6.1, 0.5, 0.1),
        (2.0 - 9.3, 0.03, 0.09),
        (1.0 - 0.5, 5.0, 0.4),
    ])
    def test_cached_lower_limit_is_the_direct_formula(self, alpha, x, ellh):
        pref = -(2.0 ** (-1.0 - alpha)) * cmath.exp(1j * (1.0 + alpha) * math.pi / 2.0)
        want = pref * (upper_incomplete_gamma(1.0 + alpha, -2j * x)
                       - upper_incomplete_gamma(1.0 + alpha, -2j / ellh))
        specfun._lower_limit_gamma.cache_clear()
        assert oscillatory_moment(alpha, x, ellh) == want  # cold
        hits = specfun._lower_limit_gamma.cache_info().hits
        assert oscillatory_moment(alpha, x, ellh) == want  # warm
        assert specfun._lower_limit_gamma.cache_info().hits == hits + 1

    @staticmethod
    def _limit_grid():
        """(alpha, ell_h) over the three orders of the super-Hubble table:
        p in (0.1, 9.9) off the integers, ell_h in [1e-3, 0.5]."""
        ps = [p for p in np.linspace(0.1, 9.9, 41).tolist() if abs(p - round(p)) > 1e-3]
        return [(off - p, ellh) for p in ps for off in (1.0, 2.0, 3.0)
                for ellh in np.geomspace(1e-3, 0.5, 7).tolist()]

    def test_upper_gamma_conjugation_on_the_limit_grid(self):
        # Gamma(a, conj z) = conj Gamma(a, z), bit for bit: the limits read
        # one lower-limit Gamma and its conjugate instead of two calls
        for alpha, ellh in self._limit_grid():
            assert upper_incomplete_gamma(1.0 + alpha, 2j / ellh) \
                == upper_incomplete_gamma(1.0 + alpha, -2j / ellh).conjugate()

    def test_limits_equal_the_two_gamma_formula(self):
        for alpha, ellh in self._limit_grid():
            a = alpha
            g_full = complex(math.gamma(1.0 + a))
            g_plus = upper_incomplete_gamma(1.0 + a, 2j / ellh)
            g_minus = upper_incomplete_gamma(1.0 + a, -2j / ellh)
            ep = cmath.exp(-1j * math.pi * a / 2.0)
            em = cmath.exp(1j * math.pi * a / 2.0)
            two = 2.0 ** (-1.0 - a)
            lim_re = two * g_full * math.sin(math.pi * a / 2.0) \
                - 1j * 0.5 * two * (ep * g_plus - em * g_minus)
            lim_im = -two * g_full * math.cos(math.pi * a / 2.0) \
                + 0.5 * two * (ep * g_plus + em * g_minus)
            assert oscillatory_moment_limits(alpha, ellh) == (lim_re.real, lim_im.real)

    def test_limits_against_mpmath(self):
        # max |error| / max(|Re|, |Im|) on the limit grid: 2.473e-13, the
        # same with the cephes Gamma port and with math.gamma
        worst = 0.0
        for alpha, ellh in self._limit_grid():
            with mp.workdps(oracle.DPS):
                want = [float(v) for v in oracle.moment_limits(alpha, ellh)]
            got = oscillatory_moment_limits(alpha, ellh)
            worst = max(worst, max(abs(g - w) for g, w in zip(got, want))
                        / max(abs(w) for w in want))
        assert worst <= 2.48e-13

    def test_cold_limits_call_one_gamma(self, monkeypatch):
        calls = []
        gamma = specfun.upper_incomplete_gamma
        monkeypatch.setattr(specfun, "upper_incomplete_gamma",
                            lambda a, z: calls.append((a, z)) or gamma(a, z))
        specfun._lower_limit_gamma.cache_clear()
        pairs = [(-1.1, 0.1), (-3.1, 0.1), (0.4, 0.003)]
        for alpha, ellh in pairs:
            oscillatory_moment_limits(alpha, ellh)
        assert calls == [(1.0 + alpha, -2j / ellh) for alpha, ellh in pairs]

    def test_lower_limit_cache_is_bounded(self):
        maxsize = specfun._lower_limit_gamma.cache_info().maxsize
        for i in range(maxsize + 10):
            oscillatory_moment(-1.1 - 0.01 * i, 0.5, 0.1 + 0.001 * i)
            assert specfun._lower_limit_gamma.cache_info().currsize <= maxsize
