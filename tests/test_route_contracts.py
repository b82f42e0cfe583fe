"""Route contracts: seeded draws over the box a route documents, each
checked against another route that holds there.

approx against transport: 20 seeded 3x3 (p, kGamma/k*) planes, with
ellH from 0.01 to 0.5, x from e^-40 to 1e-8, p from 0.2 to 9.8 (through
`offset_singular_p`) and kGamma/k* from 1e-4 to 1e2, all log-uniform but
p.  Every value must be finite, with warnings as errors.  The bounds are
the worst gaps measured on these planes times 10: 3.6e-14 of max(1, |D|)
and 2.0e-13 of |D| in D, 8.1e-13 in ln sigma0.  The routes agree to a
relative 2e-13 even where D is 1e-51, so the second bound holds the
cells that max(1, |D|) cannot see.  A sweep of 160 such planes (ROADMAP
item 19) read at most 6.4e-14 relative in D up to x = 1e-8.
"""

import math
import warnings

import numpy as np
import pytest

from gausslind.cosmology import CosmoParams, discord_cosmo, offset_singular_p

THETA = -math.pi / 4.0
D_BOUND = 3.6e-13
D_RELATIVE_BOUND = 2.0e-12
LN_SIGMA0_BOUND = 8.1e-12


def _plane(seed):
    """(x, params, p row, coupling row) of one seeded draw."""
    rng = np.random.default_rng(seed)
    ellH = math.exp(rng.uniform(math.log(0.01), math.log(0.5)))
    x = math.exp(rng.uniform(-40.0, math.log(1e-8)))
    ps = np.array([offset_singular_p(p) for p in rng.uniform(0.2, 9.8, 3).tolist()])
    couplings = 10.0 ** rng.uniform(-4.0, 2.0, 3)
    return x, CosmoParams(0.0, ps[0], ellH), ps, couplings


@pytest.mark.parametrize("seed", range(20))
def test_approx_against_transport(seed):
    x, params, ps, couplings = _plane(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = (discord_cosmo(x, THETA, params, method, kGamma_over_kstar=couplings,
                                   p=ps)
                     for method in ("approx", "transport"))
    for res in (got, want):
        assert np.all(np.isfinite(res.discord))
        assert np.all(np.isfinite(res.log_sigma_zero))
    assert np.all(np.abs(got.discord - want.discord)
                  <= D_BOUND * np.maximum(1.0, np.abs(want.discord)))
    assert np.all(np.abs(got.discord - want.discord) <= D_RELATIVE_BOUND * np.abs(want.discord))
    assert np.all(np.abs(got.log_sigma_zero - want.log_sigma_zero) <= LN_SIGMA0_BOUND)
