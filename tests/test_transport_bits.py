"""Bit pins of the transport route on two whole discord planes.

Each plane is run as the CLI's `discord_map` runs it (p from
`np.linspace(0.1, 9.9, n)` through `offset_singular_p`, couplings
`10 ** np.linspace(lo, hi, n)`, theta = -pi/4): the 8x8 plane at
x = 1e-3, ellH = 0.1, log10 kGamma/k* in [-2, 2] (every cell of it
failed with StepFailureError while each cell was its own member of the
integration) and the 12x12 default-range plane at x = e^-20, ellH = 0.1.
A pin is a cell (i, j) with its discord and ln sigma(0) as `float.hex`.
The whole plane is one response integration, so any change to the
response RHS, the integrator settings or the cell formulas shows up here
bit for bit.  The pins were recorded with glibc 2.36 libm on x86-64,
numpy 2.4 with its bundled OpenBLAS and scipy 1.17.1; another libm, numpy
or BLAS can move the last bits of every cell.
"""

import math

import numpy as np
import pytest

from gausslind.cosmology import CosmoParams, discord_cosmo, offset_singular_p

# name: (x, ellH, log10 kGamma/k* range, points per axis)
PLANES = {
    "known_defect_8x8": (1e-3, 0.1, (-2.0, 2.0), 8),
    "default_12x12": (math.exp(-20.0), 0.1, (-10.0, 6.0), 12),
}

# (plane, i, j, discord, ln sigma(0))
PINS = [
    # p 0.1, kGamma/k* 100: D 14.4
    ("known_defect_8x8", 0, 7, "0x1.cd8e1d301cfb6p+3", "0x1.0d4962c2e26c6p+4"),
    # p 4.3, kGamma/k* 0.139: D 21.4
    ("known_defect_8x8", 3, 2, "0x1.5653ef56370c9p+4", "0x1.7ac125b78d310p+2"),
    # p 9.9, kGamma/k* 7.20: D 1.0e-12
    ("known_defect_8x8", 7, 5, "0x1.218e68c09fc4cp-40", "0x1.1c5bd419d2780p+5"),
    # p 0.1, kGamma/k* 1e6: D 63.4
    ("default_12x12", 0, 11, "0x1.fb33ea763e695p+5", "0x1.1a023f387b225p+5"),
    # p 4.55, kGamma/k* 0.0534: D 49.1
    ("default_12x12", 5, 6, "0x1.8895e4f780485p+5", "0x1.67e9b5c3c8167p+4"),
    # p 9.9, kGamma/k* 2.3e-6: D 6.7e-22
    ("default_12x12", 11, 3, "0x1.935211b5715bbp-71", "0x1.172c3e71cf6cep+6"),
]


@pytest.fixture(scope="module")
def planes():
    results = {}
    for name, (x, ellH, (k_lo, k_hi), n) in PLANES.items():
        p_row = np.array([offset_singular_p(p) for p in np.linspace(0.1, 9.9, n).tolist()])
        couplings = 10.0 ** np.linspace(k_lo, k_hi, n)
        results[name] = discord_cosmo(x, -math.pi / 4.0, CosmoParams(0.0, p_row[0], ellH),
                                      "transport", kGamma_over_kstar=couplings, p=p_row)
    return results


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: f"{pin[0]}-{pin[1]}-{pin[2]}")
def test_transport_route_bits(planes, pin):
    name, i, j = pin[:3]
    res = planes[name]
    got = (float(res.discord[i, j]), float(res.log_sigma_zero[i, j]))
    assert tuple(v.hex() for v in got) == pin[3:]
