"""The discord assembly against the mpmath oracle of tests/oracle.py.

`discord._discord_from_logs` takes (ln sigma(0)^2, ln q),
q = sigma(theta)^2 - sigma(0)^2; the oracle evaluates D, I and J
straight from the entropy kernel at 600 digits.  The relative tolerance
is fixed in advance; below D_FLOOR a value is not a normal double with
headroom, and only 0 <= D <= D_FLOOR is asserted there.
"""

import numpy as np

from gausslind.cosmology import discord_cosmo
from gausslind.discord import _discord_from_logs

import oracle
from conftest import default_map, default_map_logs

RTOL = 1e-12
D_FLOOR = 1e-300

LN_SIGMA0 = (0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.35, 1.0, 3.0, 6.9, 10.0, 30.0, 100.0, 300.0)
#: ln q - ln sigma(0)^2
LN_RATIO = (-600.0, -400.0, -300.0, -200.0, -100.0, -50.0, -30.0, -20.0, -10.0, -5.0,
            -2.0, -1.0, -0.1, 0.0, 0.1, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0)


#: (ln sigma(0), mix) with sigma(theta) = sigma(0)^2 / mix: a small
#: mix = (sigma(theta) + sigma(0)^2)/(sigma(theta) + 1) beside a huge sigma(0)
MIX_POINTS = [(l0, mix) for l0 in (10.0, 100.0, 300.0) for mix in (1.5, 4.0, 6.0)]


def grid():
    """(ln sigma(0)^2, ln q) over LN_SIGMA0 x LN_RATIO, then MIX_POINTS."""
    ln_s0sq = 2.0 * np.repeat(LN_SIGMA0, len(LN_RATIO))
    ln_q = ln_s0sq + np.tile(LN_RATIO, len(LN_SIGMA0))
    mix_s0sq = np.array([2.0 * l0 for l0, _ in MIX_POINTS])
    mix_q = np.array([4.0 * l0 - 2.0 * np.log(mix) for l0, mix in MIX_POINTS])
    return np.concatenate((ln_s0sq, mix_s0sq)), np.concatenate((ln_q, mix_q))


def test_assembly_matches_oracle():
    ln_s0sq, ln_q = grid()
    got = _discord_from_logs(ln_s0sq, ln_q)
    for k, point in enumerate(zip(ln_s0sq.tolist(), ln_q.tolist())):
        for g, want in zip(got, oracle.discord_from_logs(*point)):  # D, I, J
            g, want = float(g[k]), float(want)
            assert g >= 0.0, point
            if want > D_FLOOR:
                assert abs(g / want - 1.0) <= RTOL, (point, g, want)
            else:
                assert g <= D_FLOOR, point


def test_zero_excess_is_exactly_zero():
    ln_s0sq = 2.0 * np.array(LN_SIGMA0)
    for v in _discord_from_logs(ln_s0sq, np.full_like(ln_s0sq, -np.inf)):
        assert np.all(v == 0.0)


def test_value_does_not_depend_on_its_batch():
    # the psi series is as long as the batch's largest 1/sigma^2 needs;
    # the extra terms sit below half an ulp, so every cell keeps its bits
    ln_s0sq, ln_q = grid()
    batch = _discord_from_logs(ln_s0sq, ln_q)
    for k, point in enumerate(zip(ln_s0sq.tolist(), ln_q.tolist())):
        assert tuple(v[k] for v in batch) == _discord_from_logs(*point)


def test_default_map_is_positive_and_exact():
    # the cells where decoherence wins: D down to ~1e-45, each against
    # the oracle on its own (ln sigma(0)^2, ln q)
    x, theta, params, ps, couplings = default_map()
    res = discord_cosmo(x, theta, params, kGamma_over_kstar=couplings, p=ps)
    assert np.all(res.discord > 0.0)
    ln_s0sq, ln_q = default_map_logs()
    small = res.discord < 1e-13
    assert small.sum() > 300
    for d, point in zip(res.discord[small].tolist(),
                        zip(ln_s0sq[small].tolist(), ln_q[small].tolist())):
        assert abs(d / float(oracle.discord_from_logs(*point)[0]) - 1.0) <= RTOL
