"""Bit pins of the transport route on two whole discord planes.

Each plane is run as the CLI's `discord_map` runs it (p from
`np.linspace(0.1, 9.9, n)` through `offset_singular_p`, couplings
`10 ** np.linspace(lo, hi, n)`, theta = -pi/4): the 8x8 plane at
x = 1e-3, ellH = 0.1, log10 kGamma/k* in [-2, 2] (every cell of it
failed with StepFailureError while each cell was its own member of the
integration) and the 12x12 default-range plane at x = e^-20, ellH = 0.1.
A pin is a cell (i, j) with its discord and ln sigma(0) as `float.hex`.
The whole plane is one response, by Chebyshev collocation in conformal
time down to x = 1 and in e-folds below it, so any change to either
phase, its settings or the cell formulas shows up here bit for bit.
`test_transport_route_accuracy` holds both planes to a tight reference
integration instead.  The pins were recorded with glibc 2.36 libm on x86-64,
numpy 2.4 with its bundled OpenBLAS and scipy 1.17.1; another libm, numpy
or BLAS can move the last bits of every cell.
"""

import math

import numpy as np
import pytest

from gausslind.cosmology import (
    CosmoParams,
    _kap2_row,
    _power_law,
    discord_cosmo,
    offset_singular_p,
)
from gausslind.discord import _discord_from_logs

import oracle

# name: (x, ellH, log10 kGamma/k* range, points per axis)
PLANES = {
    "known_defect_8x8": (1e-3, 0.1, (-2.0, 2.0), 8),
    "default_12x12": (math.exp(-20.0), 0.1, (-10.0, 6.0), 12),
}

# (plane, i, j, discord, ln sigma(0))
PINS = [
    # p 0.1, kGamma/k* 100: D 14.4
    ("known_defect_8x8", 0, 7, "0x1.cd8e1d301d0edp+3", "0x1.0d4962c2e26c6p+4"),
    # p 4.3, kGamma/k* 0.139: D 21.4
    ("known_defect_8x8", 3, 2, "0x1.5653ef56370cap+4", "0x1.7ac125b78d33cp+2"),
    # p 9.9, kGamma/k* 7.20: D 1.0e-12
    ("known_defect_8x8", 7, 5, "0x1.218e68c09fe23p-40", "0x1.1c5bd419d2779p+5"),
    # p 0.1, kGamma/k* 1e6: D 63.4
    ("default_12x12", 0, 11, "0x1.fb33ea763e6f1p+5", "0x1.1a023f387b225p+5"),
    # p 4.55, kGamma/k* 0.0534: D 49.1
    ("default_12x12", 5, 6, "0x1.8895e4f780485p+5", "0x1.67e9b5c3c8186p+4"),
    # p 9.9, kGamma/k* 2.3e-6: D 6.7e-22
    ("default_12x12", 11, 3, "0x1.935211b5719abp-71", "0x1.172c3e71cf6c9p+6"),
]


# the route's largest errors against the reference below, in discord and
# in ln sigma(0), as the conformal-time integration all the way down to x
# (the parent of the e-fold phase) measured them
PARENT_ERRORS = {
    "known_defect_8x8": (5.8e-13, 1.4e-13),
    "default_12x12": (7.2e-13, 2.0e-13),
}


def _plane(name):
    x, ellH, (k_lo, k_hi), n = PLANES[name]
    p_row = np.array([offset_singular_p(p) for p in np.linspace(0.1, 9.9, n).tolist()])
    return x, CosmoParams(0.0, p_row[0], ellH), p_row, 10.0 ** np.linspace(k_lo, k_hi, n)


@pytest.fixture(scope="module")
def planes():
    results = {}
    for name in PLANES:
        x, params, p_row, couplings = _plane(name)
        results[name] = discord_cosmo(x, -math.pi / 4.0, params, "transport",
                                      kGamma_over_kstar=couplings, p=p_row)
    return results


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: f"{pin[0]}-{pin[1]}-{pin[2]}")
def test_transport_route_bits(planes, pin):
    name, i, j = pin[:3]
    res = planes[name]
    got = (float(res.discord[i, j]), float(res.log_sigma_zero[i, j]))
    assert tuple(v.hex() for v in got) == pin[3:]


def _reference(x, params, p_row, couplings):
    """(discord, ln sigma(0)) of a plane from the response to its unit
    sources in conformal time from 1/ellH down to x on the compiled DOP853,
    at rtol 1e-14 and atol 1e-16 (below the rtol floor of solve_ivp)."""
    ref = oracle.de_sitter_response(params.x_coupling_on, x,
                                    lambda eta: _power_law(params, p_row - 3.0, -eta),
                                    (x,), 1e-14, 1e-16)
    ln_s0sq, ln_q = oracle.log_sigmas(oracle.response_cells(*ref, _kap2_row(params, couplings)),
                                      -math.pi / 4.0)
    return _discord_from_logs(ln_s0sq[..., 0], ln_q[..., 0])[0], 0.5 * ln_s0sq[..., 0]


@pytest.mark.parametrize("name", PLANES)
def test_transport_route_accuracy(planes, name):
    want_d, want_s0 = _reference(*_plane(name))
    res = planes[name]
    d_max, s0_max = PARENT_ERRORS[name]
    assert np.max(np.abs(res.discord - want_d)) <= d_max
    assert np.max(np.abs(res.log_sigma_zero - want_s0)) <= s0_max


@pytest.mark.parametrize("x", [1e-3, math.exp(-30.0)], ids=["x1e-3", "xe-30"])
@pytest.mark.parametrize("x_star, k_over_kstar", [(0.3, 1.0), (3.0, 2.0), (0.5, 0.7)])
def test_transport_route_off_pivot(x, x_star, k_over_kstar):
    # x_star moves the amplitude 2 x_star^(p-3) of each p row, which the
    # route puts into the couplings of the row's cells, and k/k* every
    # kap2.  A 6x4 plane through both phases against the reference above;
    # the largest errors measured at these six points are 4.0e-13 in
    # discord and 1.5e-13 in ln sigma(0)
    p_row = np.array([offset_singular_p(p) for p in np.linspace(0.1, 9.9, 6).tolist()])
    couplings = 10.0 ** np.linspace(-3.0, 1.0, 4)
    params = CosmoParams(0.0, p_row[0], 0.1, k_over_kstar=k_over_kstar, x_star=x_star)
    res = discord_cosmo(x, -math.pi / 4.0, params, "transport", kGamma_over_kstar=couplings,
                        p=p_row)
    want_d, want_s0 = _reference(x, params, p_row, couplings)
    assert np.max(np.abs(res.discord - want_d)) <= 1e-12
    assert np.max(np.abs(res.log_sigma_zero - want_s0)) <= 6e-13
