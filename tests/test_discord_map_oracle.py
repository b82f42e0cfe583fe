"""The array route of discord_cosmo(method="approx") against a per-cell
scalar oracle.

The oracle is the earlier scalar implementation, kept here verbatim in
structure: one coefficient-table evaluation per cell, scipy logsumexp on
Python lists of two to four terms, and the entropy kernel through math.
Its sigma^2(0) coefficients are the closed forms of
`sigma0_sq_coefficients`, written out per cell (the mpmath test in
test_super_hubble_oracle.py shows them exact to rounding, where the series sums the
earlier implementation used are not).
The array route builds one table per p and evaluates a whole row of
couplings at once; rounding differs (numpy log/exp, stacked log-sum-exp),
so the comparison uses tolerances fixed in advance: discord to 1e-10
absolute and purity to 1e-12 relative.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from gausslind.cosmology import (
    CosmoParams,
    asymptotic_coefficients,
    discord_cosmo,
    offset_singular_p,
)

from conftest import super_hubble_series

DISCORD_ATOL = 1e-10
PURITY_RTOL = 1e-12

LN2 = math.log(2.0)
_LARGE_X = 1e4
_LARGE_LOG = math.log(_LARGE_X)


# -- scalar oracle ------------------------------------------------------------

def _entropy_kernel(x):
    if x <= 1.0 + 1e-15:
        return 0.0
    if x > _LARGE_X:
        return (math.log(0.5 * x) + 1.0 - 1.0 / (6.0 * x * x)) / LN2
    up, dn = 0.5 * (x + 1.0), 0.5 * (x - 1.0)
    return (up * math.log(up) - dn * math.log(dn)) / LN2


def _entropy_kernel_log(ln_x):
    if ln_x > _LARGE_LOG:
        correction = math.exp(-2.0 * ln_x) / 6.0 if ln_x < 350.0 else 0.0
        return (ln_x - LN2 + 1.0 - correction) / LN2
    return _entropy_kernel(math.exp(ln_x))


def _discord_from_logs(ln_st, ln_s0):
    ln_mix = float(np.logaddexp(ln_st, 2.0 * ln_s0) - np.logaddexp(ln_st, 0.0))
    d = (_entropy_kernel_log(ln_st) - 2.0 * _entropy_kernel_log(ln_s0)
         + _entropy_kernel_log(ln_mix))
    return d if d > 0.0 else 0.0


def _signed_log_terms(pairs, ln_x):
    """(ln|sum|, sign) of sum_i c_i x^{e_i} given ln x."""
    logs, signs = [], []
    for c, e in pairs:
        if c == 0.0:
            continue
        logs.append(math.log(abs(c)) + e * ln_x)
        signs.append(math.copysign(1.0, c))
    if not logs:
        return -math.inf, 1.0
    ln, sgn = logsumexp(logs, b=signs, return_sign=True)
    return float(ln), float(sgn)


def reference_cell(x, theta, t, kap2):
    """(discord, ln sigma(0)) of one map cell, per-cell scalar code."""
    p = t.p
    ln_x = math.log(x)
    ln11, s11 = _signed_log_terms(
        ((1.0 - 2.0 * kap2 * t.b11, -2.0), (-2.0 * kap2 * t.a11, 6.0 - p)), ln_x)
    ln12, _ = _signed_log_terms(
        ((1.0 - 2.0 * kap2 * t.b12, -3.0), (-2.0 * kap2 * t.a12, 5.0 - p)), ln_x)
    ln22, s22 = _signed_log_terms(
        ((1.0 - 2.0 * kap2 * t.b22, -4.0), (-2.0 * kap2 * t.a22, 4.0 - p)), ln_x)

    s0_2 = -2.0 * kap2 * (t.ellH ** (p - 4.0) / (p - 4.0) + t.ellH ** (p - 2.0) / (p - 2.0))
    s0_4 = kap2 * kap2 * (4.0 * t.b11 ** 2 - 9.0 * t.d11 ** 2 + 36.0 * t.b11 * t.f11)
    sx_2 = 2.0 * kap2 / (p - 2.0)
    sx_4 = -2.0 * kap2 * t.b11 * sx_2
    sxx_4 = 4.0 * kap2 * kap2 / ((p - 5.0) ** 2 * (p - 8.0) * (p - 2.0))
    ln_s0sq, sgn0 = _signed_log_terms(
        ((1.0, 0.0), (s0_2 + s0_4, 0.0), (sx_2 + sx_4, 2.0 - p),
         (sxx_4, 10.0 - 2.0 * p)), ln_x)
    if sgn0 <= 0.0 or ln_s0sq < 0.0:
        ln_s0sq = 0.0

    ln_diff, _ = logsumexp([ln11, ln22], b=[s11, -s22], return_sign=True)
    ln_m2 = float(np.logaddexp(2.0 * float(ln_diff), math.log(4.0) + 2.0 * ln12))
    s2t = math.sin(2.0 * theta) ** 2
    if s2t == 0.0:
        ln_st = 0.5 * ln_s0sq
    else:
        ln_st = 0.5 * float(np.logaddexp(ln_s0sq, ln_m2 + math.log(0.25 * s2t)))
    return _discord_from_logs(ln_st, 0.5 * ln_s0sq), 0.5 * ln_s0sq


# -- comparison ---------------------------------------------------------------

# 0.1 to 9.9 (5.0 among them) plus every pole 2..9, offset as the map does
P_VALUES = sorted({offset_singular_p(p) for p in np.linspace(0.1, 9.9, 13).tolist()
                   + list(range(2, 10))})
LOG10_K = np.linspace(-10.0, 6.0, 7)
THETAS = (-math.pi / 4.0, -1.3, 0.0, -0.05)
XS = (math.exp(-40.0), math.exp(-2.5), math.exp(-700.0))


@pytest.mark.parametrize("ellH", (1e-3, 1e-2, 0.1, 0.3))
def test_array_route_matches_per_cell_oracle(ellH):
    couplings = 10.0 ** LOG10_K
    worst_d = worst_pur = 0.0
    for p in P_VALUES:
        params = CosmoParams(kGamma_over_kstar=0.0, p=p, ellH=ellH)
        t = super_hubble_series(asymptotic_coefficients(params))
        for theta in THETAS:
            for x in XS:
                res = discord_cosmo(x, theta, params, "approx", kGamma_over_kstar=couplings)
                for j, kg in enumerate(couplings.tolist()):
                    d_ref, ln_s0_ref = reference_cell(x, theta, t, kg * kg)
                    worst_d = max(worst_d, abs(res.discord[j] - d_ref))
                    # relative purity error, finite even where purity underflows
                    worst_pur = max(worst_pur, abs(math.expm1(
                        -2.0 * (res.log_sigma_zero[j] - ln_s0_ref))))
    assert worst_d <= DISCORD_ATOL
    assert worst_pur <= PURITY_RTOL


def test_scalar_coupling_gives_floats():
    params = CosmoParams(kGamma_over_kstar=0.3, p=3.5, ellH=0.01)
    res = discord_cosmo(math.exp(-20.0), -math.pi / 4.0, params, "approx")
    fields = (res.discord, res.sigma_theta, res.sigma_zero,
              res.log_sigma_theta, res.log_sigma_zero)
    assert all(type(f) is float for f in fields)
    row = discord_cosmo(math.exp(-20.0), -math.pi / 4.0, params, "approx",
                        kGamma_over_kstar=np.array([0.3, 3.0]))
    assert row.discord.shape == (2,)
    assert res.discord == row.discord[0]
    assert res.log_sigma_zero == row.log_sigma_zero[0]
