"""Bit pins of the transport route on two whole discord planes.

Each plane is run as the CLI's `discord_map` runs it (p from
`np.linspace(0.1, 9.9, n)` through `offset_singular_p`, couplings
`10 ** np.linspace(lo, hi, n)`, theta = -pi/4): the 8x8 plane at
x = 1e-3, ellH = 0.1, log10 kGamma/k* in [-2, 2] (every cell of it
failed with StepFailureError while each cell was its own member of the
integration) and the 12x12 default-range plane at x = e^-20, ellH = 0.1.
A pin is a cell (i, j) with its discord and ln sigma(0) as `float.hex`.
The whole plane is one response integration, in conformal time down to
x = 1 and in e-folds below it, so any change to either RHS, the
integrator settings or the cell formulas shows up here bit for bit.
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
    de_sitter_covariance_closed,
    de_sitter_frequency,
    discord_cosmo,
    offset_singular_p,
)
from gausslind.discord import _discord_from_logs
from gausslind.opensys import _response

# name: (x, ellH, log10 kGamma/k* range, points per axis)
PLANES = {
    "known_defect_8x8": (1e-3, 0.1, (-2.0, 2.0), 8),
    "default_12x12": (math.exp(-20.0), 0.1, (-10.0, 6.0), 12),
}

# (plane, i, j, discord, ln sigma(0))
PINS = [
    # p 0.1, kGamma/k* 100: D 14.4
    ("known_defect_8x8", 0, 7, "0x1.cd8e1d301cffbp+3", "0x1.0d4962c2e26c6p+4"),
    # p 4.3, kGamma/k* 0.139: D 21.4
    ("known_defect_8x8", 3, 2, "0x1.5653ef56370cap+4", "0x1.7ac125b78d346p+2"),
    # p 9.9, kGamma/k* 7.20: D 1.0e-12
    ("known_defect_8x8", 7, 5, "0x1.218e68c09fe47p-40", "0x1.1c5bd419d2779p+5"),
    # p 0.1, kGamma/k* 1e6: D 63.4
    ("default_12x12", 0, 11, "0x1.fb33ea763e6ccp+5", "0x1.1a023f387b225p+5"),
    # p 4.55, kGamma/k* 0.0534: D 49.1
    ("default_12x12", 5, 6, "0x1.8895e4f780485p+5", "0x1.67e9b5c3c818bp+4"),
    # p 9.9, kGamma/k* 2.3e-6: D 6.7e-22
    ("default_12x12", 11, 3, "0x1.935211b5718e1p-71", "0x1.172c3e71cf6cap+6"),
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


@pytest.mark.parametrize("name", PLANES)
def test_transport_route_accuracy(planes, name):
    # the reference: the response to the same unit sources in conformal time
    # from the same start, at rtol 1e-14 and atol 1e-16 (below the rtol
    # floor that evolve_de_sitter enforces, hence the private engine)
    x, params, p_row, couplings = _plane(name)
    x_on = params.x_coupling_on

    def source(eta):
        return _power_law(params, p_row - 3.0, -eta)

    ref = _response(de_sitter_frequency(), source, source(-x_on), (-x_on, -x),
                    de_sitter_covariance_closed(x_on), [-x], 1e-14, 1e-16)
    ln_s0sq, ln_q = ref.cells(_kap2_row(params, couplings))._log_sigmas(-math.pi / 4.0)
    want_d = _discord_from_logs(ln_s0sq[..., 0], ln_q[..., 0])[0]
    res = planes[name]
    d_max, s0_max = PARENT_ERRORS[name]
    assert np.max(np.abs(res.discord - want_d)) <= d_max
    assert np.max(np.abs(res.log_sigma_zero - 0.5 * ln_s0sq[..., 0])) <= s0_max
