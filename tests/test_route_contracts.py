"""Route contracts: seeded draws over the box a route documents, each
checked against another route that holds there.

Each case runs 20 seeded 3x3 (p, kGamma/k*) planes, with p from 0.2 to
9.8 (through `offset_singular_p`) and kGamma/k* from 1e-4 to 1e2, ellH
and x as below, all log-uniform but p.  Every value must be finite, with
warnings as errors.  The bounds are the worst gaps measured on these
planes times 10, in D relative to max(1, |D|) and to |D| (the second
holds the cells that max(1, |D|) cannot see), and in ln sigma0.

approx against transport: ellH from 0.01 to 0.5, x from e^-40 to 1e-8.
Measured: 3.6e-14 of max(1, |D|) and 2.0e-13 of |D| in D, 8.1e-13 in
ln sigma0; the routes agree to a relative 2e-13 even where D is 1e-51.
A sweep of 160 such planes (ROADMAP item 19) read at most 6.4e-14
relative in D up to x = 1e-8.

exact against transport: ellH from 0.05 to 0.5, x from 0.3 to 1, where
the exact route is clean (ROADMAP item 2).  Measured: 9.9e-13 of
max(1, |D|) and 3.8e-12 of |D| in D, 2.0e-12 in ln sigma0; 200 more
seeds read 1.6e-12, 6.8e-12 and 5.2e-12.

The README's route-tolerance table states these boxes, gaps and bounds;
`test_readme_table_matches_contracts` holds it to CONTRACTS.
"""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from gausslind.cosmology import CosmoParams, discord_cosmo, offset_singular_p

THETA = -math.pi / 4.0

# method: (ln x range, ln ellH range, bounds: D of max(1, |D|), D of |D|, ln sigma0)
CONTRACTS = {
    "approx": ((-40.0, math.log(1e-8)), (math.log(0.01), math.log(0.5)),
               (3.6e-13, 2.0e-12, 8.1e-12)),
    "exact": ((math.log(0.3), 0.0), (math.log(0.05), math.log(0.5)),
              (9.9e-12, 3.8e-11, 2.0e-11)),
}


def _plane(seed, ln_x, ln_ellH):
    """(x, params, p row, coupling row) of one seeded draw."""
    rng = np.random.default_rng(seed)
    ellH = math.exp(rng.uniform(*ln_ellH))
    x = math.exp(rng.uniform(*ln_x))
    ps = np.array([offset_singular_p(p) for p in rng.uniform(0.2, 9.8, 3).tolist()])
    couplings = 10.0 ** rng.uniform(-4.0, 2.0, 3)
    return x, CosmoParams(0.0, ps[0], ellH), ps, couplings


def _check_against_transport(method, seed):
    ln_x, ln_ellH, (d_bound, d_relative_bound, ln_sigma0_bound) = CONTRACTS[method]
    x, params, ps, couplings = _plane(seed, ln_x, ln_ellH)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = (discord_cosmo(x, THETA, params, m, kGamma_over_kstar=couplings, p=ps)
                     for m in (method, "transport"))
    for res in (got, want):
        assert np.all(np.isfinite(res.discord))
        assert np.all(np.isfinite(res.log_sigma_zero))
    gap = np.abs(got.discord - want.discord)
    assert np.all(gap <= d_bound * np.maximum(1.0, np.abs(want.discord)))
    assert np.all(gap <= d_relative_bound * np.abs(want.discord))
    assert np.all(np.abs(got.log_sigma_zero - want.log_sigma_zero) <= ln_sigma0_bound)


@pytest.mark.parametrize("seed", range(20))
def test_approx_against_transport(seed):
    _check_against_transport("approx", seed)


@pytest.mark.parametrize("seed", range(20))
def test_exact_against_transport(seed):
    _check_against_transport("exact", seed)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_rows() -> dict:
    """method: its cells after the first two, for each row of the README's
    route-tolerance table."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip())[1:-1]]
        if len(cells) == 7 and cells[0] in CONTRACTS and cells[1] == "transport":
            rows[cells[0]] = cells[2:]
    return rows


def _number(text: str) -> float:
    return math.exp(float(text[2:])) if text.startswith("e^") else float(text)


def test_readme_table_matches_contracts():
    rows = _readme_rows()
    assert sorted(rows) == sorted(CONTRACTS)
    for method, (ln_x, ln_ellH, bounds) in CONTRACTS.items():
        x, ellH, *gaps = rows[method]
        for text, ln_range in ((x, ln_x), (ellH, ln_ellH)):
            ends = [math.log(_number(end)) for end in text.split(" to ")]
            assert np.allclose(ends, ln_range, rtol=1e-12, atol=0.0), (method, text)
        for text, bound in zip(gaps, bounds, strict=True):
            measured, stated = map(float, re.fullmatch(r"(\S+) \(bound (\S+)\)", text).groups())
            assert stated == bound and math.isclose(stated, 10.0 * measured), (method, text)
