"""gausslind._special against scipy.special, bit for bit: the package's
gamma, xlog1py and logsumexp replace scipy's and must give the same
doubles, or the CSV bytes would depend on which one ran.  Seeded grids
cover every branch; the edge cases are the poles, zeros, infinities and
NaNs."""

import math

import numpy as np
import pytest
import scipy.special as sc

from gausslind._special import gamma, xlog1py, logsumexp


def _hex(values) -> list:
    """float.hex of each value: equal lists mean equal bits (any NaN reads 'nan')."""
    return [float.hex(v) for v in np.asarray(values, dtype=float).ravel().tolist()]


def _assert_gamma_bits(xs):
    xs = np.asarray(xs, dtype=float)
    assert _hex([gamma(v) for v in xs.tolist()]) == _hex(sc.gamma(xs))


class TestGamma:
    @pytest.mark.parametrize("lo, hi", [
        (0.0, 3.0),       # the rational form on [2, 3], reached by division
        (3.0, 33.0),      # the upward recurrence
        (-33.0, 0.0),     # the downward recurrence through the negative axis
        (33.0, 143.01608),          # Stirling's series
        (143.01608, 171.62437695630272),  # Stirling with the split pow
        (171.62437695630272, 200.0),      # overflow to inf
        (-200.0, -33.0),  # reflection, down to values that underflow to 0
    ], ids=["rational", "up", "down", "stirling", "stirling_split", "overflow",
            "reflection"])
    def test_branches(self, lo, hi):
        _assert_gamma_bits(np.random.default_rng(1).uniform(lo, hi, 20_000))

    def test_near_poles(self):
        # both sides of every pole down to -60, from 1e-3 in to one ulp;
        # |x| < 1e-9 takes cephes' small-argument form
        poles = -np.arange(0.0, 61.0)
        offsets = np.concatenate([np.geomspace(1e-3, 1e-15, 25), [1e-9, 1.0001e-9, 9.999e-10]])
        xs = (poles[:, None] + np.concatenate([offsets, -offsets])[None, :]).ravel()
        ulps = np.concatenate([np.nextafter(poles, np.inf), np.nextafter(poles, -np.inf)])
        _assert_gamma_bits(np.concatenate([xs, ulps, [5e-324, -5e-324, 1e-300, -1e-300]]))

    def test_integers_and_specials(self):
        # scipy: NaN at every negative integer (either branch), +-inf at +-0,
        # inf at +inf, NaN at -inf and NaN; exact factorials
        xs = np.concatenate([np.arange(-40.0, 0.0), [-1e300, -2.0 ** 53],
                             np.arange(1.0, 172.0), [172.0, 1e300],
                             [0.0, -0.0, math.inf, -math.inf, math.nan]])
        _assert_gamma_bits(xs)
        assert math.isnan(gamma(-3.0)) and math.isnan(gamma(-35.0))
        assert gamma(-0.0) == -math.inf and gamma(0.0) == math.inf

    def test_half_integers(self):
        _assert_gamma_bits(np.arange(-199.5, 180.0, 1.0))


class TestXlog1py:
    # cephes switches from its rational form to log(1 + y) outside
    # sqrt(1/2) <= 1 + y <= sqrt(2)
    INNER = (math.sqrt(0.5) - 1.0, math.sqrt(2.0) - 1.0)

    @pytest.mark.parametrize("lo, hi", [
        (-0.3, 0.42), (-1.0, -0.29), (0.41, 3.0), (3.0, 1e6)],
        ids=["inner", "outer_low", "outer_high", "outer_far"])
    def test_branches(self, lo, hi):
        rng = np.random.default_rng(2)
        x, y = rng.normal(0.0, 5.0, 50_000), rng.uniform(lo, hi, 50_000)
        assert _hex(xlog1py(x, y)) == _hex(sc.xlog1py(x, y))

    def test_log_uniform_arguments(self):
        # the discord assembly's y = 1/d spans many decades
        rng = np.random.default_rng(3)
        x, y = np.exp(rng.uniform(-30, 30, 50_000)), np.exp(rng.uniform(-40, 40, 50_000))
        assert _hex(xlog1py(x, y)) == _hex(sc.xlog1py(x, y))

    def test_branch_edges(self):
        edges = []
        for v in (1.0 + self.INNER[0], 1.0 + self.INNER[1]):
            near = np.array([np.nextafter(v, -1.0), v, np.nextafter(v, 3.0)])
            edges.extend((near - 1.0).tolist())
            edges.extend([np.nextafter(e, -1.0) for e in (near - 1.0).tolist()])
        y = np.array(edges)
        assert _hex(xlog1py(1.5, y)) == _hex(sc.xlog1py(1.5, y))

    @pytest.mark.parametrize("x", [0.0, -0.0, 1.0, -2.5, 1e300, math.inf, math.nan])
    def test_special_values(self, x):
        # x = 0 gives +0 unless y is NaN; y = -1 is log(0), y < -1 is NaN
        y = np.array([0.0, -0.0, 1e-300, -1.0, -1.5, -math.inf, math.inf, math.nan,
                      np.nextafter(-1.0, 0.0)])
        assert _hex(xlog1py(x, y)) == _hex(sc.xlog1py(x, y))

    def test_shape_and_broadcast(self):
        x, y = np.linspace(0.0, 2.0, 6).reshape(2, 3), np.array([0.1, 0.9, 40.0])
        got = xlog1py(x, y)
        assert got.shape == (2, 3)
        assert _hex(got) == _hex(sc.xlog1py(x, y))


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
