"""The package's elementwise special functions against their oracles.

Gamma is math.gamma, reached through `specfun._complete_gamma`, and the
x log1p(y) terms of `discord._psi_gap` are numpy's x * np.log1p(y): both
are checked against mpmath (tests/oracle.py), and so is `_psi_gap` as a
whole.  Each bound is the distance the cephes ports they replaced
measured on the same points, except on the four Gamma sets where
math.gamma reads further from mpmath than the port did: there the bound
is math.gamma's own distance.
`_special.logsumexp` repeats scipy.special.logsumexp's algorithm and is
checked against it bit for bit on seeded grids and edge cases: ties,
zero weights, infinities and NaNs."""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sc

from gausslind import specfun
from gausslind._special import logsumexp
from gausslind.cosmology import CosmoParams, discord_cosmo
from gausslind.discord import _psi_gap
from gausslind.errors import DomainError, PoleOrderError

import oracle

#: Gamma(x) overflows a double above this
MAXGAM = 171.62437695630272
#: max relative error of _psi_gap for b < 8 on the grid below: 1.302e-12
#: for both the cephes log1p port and numpy, at b = 7.9 and a step of
#: 3e-7, where the near form cancels to ~1/(3 b^2) of its terms
PSI_GAP_RTOL = 1.31e-12


def _hex(values) -> list:
    """float.hex of each value: equal lists mean equal bits (any NaN reads 'nan')."""
    return [float.hex(v) for v in np.asarray(values, dtype=float).ravel().tolist()]


def _assert_gamma_close(xs, bound):
    """The package's Gamma within `bound` ulps of mpmath (subnormal
    results in units of 5e-324), PoleOrderError at the poles and
    DomainError where Gamma(x) overflows a double."""
    for x in np.asarray(xs, dtype=float).tolist():
        if x <= 0.0 and x == math.floor(x):
            with pytest.raises(PoleOrderError):
                specfun._complete_gamma(x)
            continue
        ulps = oracle.gamma_ulps(lambda: specfun._complete_gamma(x).real, x)
        if ulps is None:
            with pytest.raises(DomainError, match="overflows"):
                specfun._complete_gamma(x)
        else:
            assert ulps <= bound, x


class TestGamma:
    # the ranges of the cephes branches (rational form, recurrence up and
    # down, Stirling's series with and without the split pow, reflection)
    # serve as sample sets.  Each bound is the max ulps the cephes port
    # (scipy's gamma) measured on its set where math.gamma reads less,
    # and math.gamma's own max where it reads more.  Port -> math.gamma:
    # rational 3.92 -> 6.82, up 6.85 -> 6.20, down 7.60 -> 6.77,
    # stirling 3.79 -> 4.50, stirling_split 4.46 -> 4.55, reflection 6.13
    # (normal results; ~3e15 on the subnormal ones) -> 5.51, near the
    # poles 5.37 -> 5.32, integers 2.67 -> 2.97, half-integers 3.74
    # (normal results) -> 3.30
    @pytest.mark.parametrize("lo, hi, bound", [
        (0.0, 3.0, 6.83), (3.0, 33.0, 6.85), (-33.0, 0.0, 7.61), (33.0, 143.01608, 4.51),
        (143.01608, MAXGAM, 4.56), (MAXGAM, 200.0, 0.0), (-200.0, -33.0, 6.14),
    ], ids=["rational", "up", "down", "stirling", "stirling_split", "overflow",
            "reflection"])
    def test_branches(self, lo, hi, bound):
        _assert_gamma_close(np.random.default_rng(1).uniform(lo, hi, 20_000), bound)

    def test_near_poles(self):
        # both sides of every pole down to -60, from 1e-3 in to one ulp;
        # Gamma(+-5e-324) overflows
        poles = -np.arange(0.0, 61.0)
        offsets = np.concatenate([np.geomspace(1e-3, 1e-15, 25), [1e-9, 1.0001e-9, 9.999e-10]])
        xs = (poles[:, None] + np.concatenate([offsets, -offsets])[None, :]).ravel()
        ulps = np.concatenate([np.nextafter(poles, np.inf), np.nextafter(poles, -np.inf)])
        _assert_gamma_close(np.concatenate([xs, ulps, [5e-324, -5e-324, 1e-300, -1e-300]]), 5.37)

    def test_integers_and_specials(self):
        # poles at every non-positive integer, +-0 and -inf, exact
        # factorials, overflow from 172 on; inf and NaN pass through
        _assert_gamma_close(np.concatenate([np.arange(-40.0, 0.0), [-1e300, -2.0 ** 53],
                                            np.arange(1.0, 172.0), [172.0, 1e300],
                                            [0.0, -0.0]]), 2.97)
        assert specfun._complete_gamma(5.0) == 24.0
        assert specfun._complete_gamma(math.inf) == math.inf
        assert cmath.isnan(specfun._complete_gamma(math.nan))
        with pytest.raises(PoleOrderError):
            specfun._complete_gamma(-math.inf)

    def test_half_integers(self):
        _assert_gamma_close(np.arange(-199.5, 180.0, 1.0), 3.75)

    @pytest.mark.parametrize("a, z", [(200.0, 0.0), (175.0, 3.0)])
    def test_overflow_is_a_domain_error(self, a, z):
        # Gamma(a) beyond 171.6 is not a double; the series needs it
        with pytest.raises(DomainError, match="overflows"):
            specfun.upper_incomplete_gamma(a, z)

    def test_poles_are_pole_order_errors(self):
        for alpha in (-1.0, -2.0, -5.0):  # Gamma(1 + alpha) at a pole
            with pytest.raises(PoleOrderError):
                specfun.oscillatory_moment_limits(alpha, 0.1)

    def test_overflowing_table_is_a_domain_error(self):
        # p = -170 asks for Gamma(4 - p) = Gamma(174) in the coefficient table
        with pytest.raises(DomainError, match="overflows"):
            discord_cosmo(math.exp(-20.0), -math.pi / 4.0, CosmoParams(1.0, -170.0, 0.1))
        with pytest.raises(DomainError, match="overflows"):
            specfun.oscillatory_moment_limits(172.0, 0.1)


def _xlog1py(x, y):
    """The x log1p(y) terms of `discord._psi_gap`, elementwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.asarray(x, dtype=float) * np.log1p(np.asarray(y, dtype=float))


def _assert_xlog1py_close(x, y, bound):
    """_xlog1py within `bound` ulps of mpmath wherever x log1p(y) is a
    normal double, and equal to its IEEE value (0, +-inf or NaN) elsewhere."""
    got = _xlog1py(x, y)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    assert got.shape == x.shape
    for g, xi, yi in zip(got.ravel().tolist(), x.ravel().tolist(), y.ravel().tolist()):
        ulps = oracle.xlog1py_ulps(g, xi, yi)
        if ulps is None:
            want = float(oracle.xlog1py(xi, yi))
            assert g == want or (math.isnan(g) and math.isnan(want)), (xi, yi)
        else:
            assert ulps <= bound, (xi, yi)


class TestXlog1py:
    # the ranges on either side of sqrt(1/2) <= 1 + y <= sqrt(2), where
    # cephes' log1p switched from its rational form to log(1 + y), serve
    # as sample sets.  Bounds are the ulps the cephes port (scipy's
    # xlog1py) measured on each set; numpy's x * log1p(y) reads 1.40
    # (inner), 1.39 (outer_low), 1.46 (outer_high), 1.28 (outer_far),
    # 1.43 (log-uniform), 0.58 (edges), 0.62 (specials), 0.33 (broadcast)
    INNER = (math.sqrt(0.5) - 1.0, math.sqrt(2.0) - 1.0)

    @pytest.mark.parametrize("lo, hi, bound", [
        (-0.3, 0.42, 2.70), (-1.0, -0.29, 1.39), (0.41, 3.0, 2.92), (3.0, 1e6, 1.29)],
        ids=["inner", "outer_low", "outer_high", "outer_far"])
    def test_branches(self, lo, hi, bound):
        rng = np.random.default_rng(2)
        _assert_xlog1py_close(rng.normal(0.0, 5.0, 50_000), rng.uniform(lo, hi, 50_000), bound)

    def test_log_uniform_arguments(self):
        # the discord assembly's y = 1/d spans many decades
        rng = np.random.default_rng(3)
        x, y = np.exp(rng.uniform(-30, 30, 50_000)), np.exp(rng.uniform(-40, 40, 50_000))
        _assert_xlog1py_close(x, y, 2.45)

    def test_branch_edges(self):
        edges = []
        for v in (1.0 + self.INNER[0], 1.0 + self.INNER[1]):
            near = np.array([np.nextafter(v, -1.0), v, np.nextafter(v, 3.0)])
            edges.extend((near - 1.0).tolist())
            edges.extend([np.nextafter(e, -1.0) for e in (near - 1.0).tolist()])
        _assert_xlog1py_close(1.5, np.array(edges), 1.46)

    @pytest.mark.parametrize("x", [0.0, -0.0, 1.0, -2.5, 1e300, math.inf, math.nan])
    def test_special_values(self, x):
        # IEEE products: y = -1 is log(0), y < -1 is NaN, and 0 times an
        # infinite log is NaN (scipy's xlog1py gave 0 at x = 0; _psi_gap's
        # factors are positive, and _inv keeps its log1p arguments finite)
        y = np.array([0.0, -0.0, 1e-300, -1.0, -1.5, -math.inf, math.inf, math.nan,
                      np.nextafter(-1.0, 0.0)])
        _assert_xlog1py_close(x, y, 0.62)

    def test_shape_and_broadcast(self):
        x, y = np.linspace(0.0, 2.0, 6).reshape(2, 3), np.array([0.1, 0.9, 40.0])
        assert _xlog1py(x, y).shape == (2, 3)
        _assert_xlog1py_close(x, y, 0.34)


def test_psi_gap_against_mpmath():
    # b - 1 from 0 (b = 1) to 6.9, below the series branch at b >= 8,
    # and steps across both forms (a <= 2b and a > 2b)
    bm1, step = (v.ravel() for v in np.meshgrid(
        [0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 6.9],
        np.geomspace(1e-14, 1e8, 45), indexing="ij"))
    with np.errstate(divide="ignore"):
        ln_bm1, ln_step = np.log(bm1), np.log(step)
    got = _psi_gap(np.log(1.0 + bm1 + step), np.log1p(bm1), ln_step, ln_bm1)
    worst = max(float(abs(g / oracle.psi_gap(s, m) - 1))
                for g, s, m in zip(got.tolist(), ln_step.tolist(), ln_bm1.tolist()))
    assert worst <= PSI_GAP_RTOL


def _assert_lse_bits(a, b):
    got, sgn = logsumexp(a, b)
    ref, ref_sgn = sc.logsumexp(a, axis=0, b=b, return_sign=True)
    assert np.shape(got) == np.shape(ref)
    assert _hex(got) == _hex(ref)
    assert _hex(sgn) == _hex(ref_sgn)


class TestLogsumexp:
    def test_random_signed_weights(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            shape = (int(rng.integers(1, 6)), *rng.integers(1, 5, int(rng.integers(0, 3))))
            a = rng.normal(0.0, 30.0, shape)
            b = rng.choice([-3.0, -1.0, -0.25, 0.0, 0.5, 1.0, 2.0], shape)
            _assert_lse_bits(a, b)

    def test_ties_at_the_max(self):
        # several terms share the max: all of them leave the sum together
        a = np.array([[2.0, 2.0, -1.0], [2.0, 0.5, -1.0], [1.0, 2.0, 3.0]])
        b = np.array([[1.0, -2.0, 1.0], [0.5, 1.0, 1.0], [1.0, -1.0, -1.0]])
        _assert_lse_bits(a, b)
        _assert_lse_bits(a.T.copy(), b.T.copy())

    def test_zero_weights(self):
        # a zero weight removes its term even where a is inf or NaN
        a = np.array([[5.0, math.inf, 1.0], [math.nan, 0.0, 1.0], [1.0, 2.0, 700.0]])
        b = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 0.0]])
        _assert_lse_bits(a, b)
        _assert_lse_bits(np.ones((3, 2)), np.zeros((3, 2)))  # an empty sum: -inf, sign 0

    def test_cancelling_sums(self):
        # sums that are exactly 0 give ln 0 = -inf with sign 0 (the naive fallback)
        a = np.array([[1.0, 3.0, 0.0], [1.0, 3.0, math.log(2.0)], [-5.0, 3.0, 0.0]])
        b = np.array([[1.0, 1.0, 2.0], [-1.0, -1.0, -1.0], [0.0, 0.0, 0.0]])
        _assert_lse_bits(a, b)
        got, sgn = logsumexp(a, b)
        assert got[0] == -math.inf and sgn[0] == 0.0

    def test_non_finite_fallback(self):
        # -inf everywhere, +inf, NaN and overflowing terms: the result
        # comes from the naive ln|sum b e^a|
        a = np.array([[-math.inf, math.inf, math.nan, 800.0, math.inf],
                      [-math.inf, 1.0, 1.0, 800.0, math.inf],
                      [-math.inf, 2.0, 0.0, -800.0, 1.0]])
        b = np.array([[1.0, 1.0, 1.0, 1.0, 1.0],
                      [-1.0, 1.0, 1.0, 1.0, -1.0],
                      [1.0, -1.0, 1.0, 1e308, 1.0]])
        _assert_lse_bits(a, b)

    def test_map_shaped_inputs(self):
        # the approx plane's shapes: (terms, components, n_p, n_k) along axis 0
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 200.0, (4, 3, 12, 9))
        b = np.sign(rng.normal(size=a.shape))
        b[1, :, :2] = 0.0
        _assert_lse_bits(a, b)
