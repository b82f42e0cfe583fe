"""Bit pins of the exact route on cells of the seed-0 `map_exact` reference
round (perfbench/reference.json holds them to 1e-9 relative).

Each cell is (x, theta, ellH, p, kGamma/k*) and the det, discord and
ln sigma(0) that `exact_open_det` and `discord_cosmo(method="exact")`
gave, as `float.hex`.  The p ~ 9.2-9.3 cells are round-off limited: corr11
cancels to a few digits there, so a relative change of 2e-16 in the three
moments moves their det by up to 6e-8, and a rewrite of the Gamma work
or of the quadrature shows up here bit for bit before it shows up in the
reference.  The pins were recorded with glibc 2.36 libm (math.gamma) on
x86-64, numpy 2.4 and scipy 1.17.1; another libm or numpy can move the
last bits of every cell.  The discord of each cell is also held to the
mpmath oracle of its own covariance entries and det, which does not
depend on the bits.
"""

import warnings

import pytest
from scipy.integrate import IntegrationWarning

from gausslind.cosmology import (
    CosmoParams,
    discord_cosmo,
    exact_open_covariance,
    exact_open_det,
)

import oracle

#: max |D / D_oracle - 1| over the pins: 2.887e-15 at p 9.314 and 9.226,
#: with the cephes ports and with numpy and math.gamma alike
DISCORD_RTOL = 2.9e-15

# (x, theta, ellH, p, kGamma/k*, det, discord, ln sigma(0))
PINS = [
    # p 0.285, x 0.347, ellH 0.243: det 1.00005 and 2.8e7
    ("0x1.6352be5a914d9p-2", "-0x1.091b849eb9695p-1", "0x1.f244cba547a2cp-3",
     "0x1.2430584af4914p-2", "0x1.5b23fb247dc90p-11",
     "0x1.00035277adb08p+0", "0x1.57f2f5e629acfp+2", "0x1.a93914869efb1p-16"),
    ("0x1.6352be5a914d9p-2", "-0x1.091b849eb9695p-1", "0x1.f244cba547a2cp-3",
     "0x1.2430584af4914p-2", "0x1.43bae47e69d8fp+3",
     "0x1.acb04c9f7e76cp+24", "0x1.62ae396f72f27p-7", "0x1.126ad8fa165b4p+3"),
    # p 9.314, x 0.0276, ellH 0.0530, kGamma/k* 4.0e-3 and 1.97
    ("0x1.c44be2a9665b9p-6", "-0x1.28da1f78f1dd8p+0", "0x1.b1ccff0dcf0adp-5",
     "0x1.2a0f98b282600p+3", "0x1.05aeffbc8e59bp-8",
     "0x1.0d9be578c45b7p+20", "0x1.3d0c8262d4b59p-1", "0x1.bd458a573165ap+2"),
    ("0x1.c44be2a9665b9p-6", "-0x1.28da1f78f1dd8p+0", "0x1.b1ccff0dcf0adp-5",
     "0x1.2a0f98b282600p+3", "0x1.f930e12a8ac6ep+0",
     "0x1.1b0d3fd335567p+43", "0x1.5495e0b9ddc38p-16", "0x1.de7e144d7bb1fp+3"),
    # p 9.226, x 0.0334, ellH 0.0893, kGamma/k* 0.382 and 18.8
    ("0x1.119e702a3bd0cp-5", "-0x1.55cd9f6823decp+0", "0x1.6df858c317737p-4",
     "0x1.2738e59ae8ccbp+3", "0x1.875060cbe634dp-2",
     "0x1.9be46a58e0080p+31", "0x1.d029b37247f18p-12", "0x1.5f690cc242048p+3"),
    ("0x1.119e702a3bd0cp-5", "-0x1.55cd9f6823decp+0", "0x1.6df858c317737p-4",
     "0x1.2738e59ae8ccbp+3", "0x1.2c600ca33d5a5p+4",
     "0x1.04e67d1f5ca16p+53", "0x1.65f7d4fd33d84p-22", "0x1.260bccc31265cp+4"),
]


def _pin_id(pin) -> str:
    return f"p{float.fromhex(pin[3]):.3f}-kG{float.fromhex(pin[4]):.3g}"


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_exact_route_bits(pin):
    x, theta, ellH, p, kg = (float.fromhex(v) for v in pin[:5])
    params = CosmoParams(kg, p, ellH)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        det = exact_open_det(x, params)
        res = discord_cosmo(x, theta, params, "exact")
    got = (det, float(res.discord), float(res.log_sigma_zero))
    assert tuple(v.hex() for v in got) == pin[5:]


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_exact_route_discord_against_oracle(pin):
    x, theta, ellH, p, kg = (float.fromhex(v) for v in pin[:5])
    params = CosmoParams(kg, p, ellH)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        got = float(discord_cosmo(x, theta, params, "exact").discord)
        block, det = exact_open_covariance(x, params), exact_open_det(x, params)
    want = oracle.discord_from_entries(block.g11, block.g12, block.g22, det, theta)[0]
    assert abs(got / float(want) - 1.0) <= DISCORD_RTOL
