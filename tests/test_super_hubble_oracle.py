"""The super-Hubble coefficient table and the sigma^2(0) coefficients
against the 50-digit mpmath oracle of tests/oracle.py."""

import math

import pytest

from gausslind.cosmology import (
    CosmoParams,
    asymptotic_coefficients,
    offset_singular_p,
    sigma0_sq_approx,
    sigma0_sq_coefficients,
)
from gausslind.specfun import oscillatory_moment_limits

import oracle

# every integer pole 2..9 is met at the offset the discord map uses
P_GRID = [0.5, 2.1, 3.7, 6.1, 9.3] + [offset_singular_p(n) for n in range(2, 10)]
ELLH_GRID = (1e-3, 0.1, 0.3)


def rel(got, want) -> float:
    return float(abs(got / want - 1))


@pytest.mark.parametrize("ellH", ELLH_GRID)
@pytest.mark.parametrize("p", P_GRID)
def test_table_and_sigma_coefficients(p, ellH):
    params = CosmoParams(1.0, p, ellH)
    t = asymptotic_coefficients(params)
    o = oracle.coefficient_table(p, ellH)

    for k, alpha in enumerate((1.0 - p, 2.0 - p, 3.0 - p)):
        got = oscillatory_moment_limits(alpha, ellH)
        want = (o.r[k], o.i[k])
        scale = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12 * scale
    for name in ("a11", "a12", "a22"):
        assert rel(getattr(t, name), getattr(o, name)) < 1e-14, name
    assert rel(t.b11, o.b11) < 1e-10
    assert rel(t.f11, o.f11) < 1e-10
    # d11 = (-i1 + 2 r2 + i3)/3 cancels the moment limits' small
    # components about 1e5-fold at p = 6.0001, ellH = 1e-3: 1.04e-8 there
    assert rel(t.d11, o.d11) < 3e-8

    # the closed forms are exact to rounding; s0_4 and sx_4 carry the
    # error of b11, d11 and f11
    got = sigma0_sq_coefficients(t, params.kGamma_over_kstar ** 2)
    want = oracle.sigma_coefficients(o, params.kGamma_over_kstar ** 2)
    s0_2, s0_4, sx_2, sx_4, sxx_4 = (rel(g, w) for g, w in zip(got, want))
    assert s0_2 < 1e-14
    assert sx_2 < 1e-14
    assert sxx_4 < 1e-14
    assert s0_4 < 1e-10
    assert sx_4 < 1e-10


@pytest.mark.parametrize("ellH", (1e-3, 1e-2, 0.1))
@pytest.mark.parametrize("kGamma", (4.64, 2.15e3, 1e6))
def test_sigma0_sq_next_to_p8(ellH, kGamma):
    # 1/(p - 8) = 1e4 amplifies any rounding left in Sigma_{10-2p}, the
    # term that dominates here
    p, x = offset_singular_p(8.0), math.exp(-40.0)
    got = sigma0_sq_approx(x, CosmoParams(kGamma, p, ellH))
    assert rel(got, oracle.sigma0_sq(x, p, ellH, kGamma)) < 1e-11
