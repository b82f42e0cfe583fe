"""Cost of the log-domain discord assembly, `discord._discord_from_logs`.

    pytest tests/bench_discord_assembly.py --benchmark-only

The file name keeps it out of the default test collection.  Two inputs,
each as its producer hands it over in one call:
"plane", the (ln sigma(0)^2, ln q) arrays of the default 40x40
`discord_map` (approx route, x = e^-20, theta = -pi/4, ellH = 1e-3,
p in 0.1..9.9, log10 kGamma/k* in -10..6), and "block", the two floats
of one covariance block (r = 2, phi = 0.3, lam = 5, theta = -pi/4).
Each benchmark's extra_info holds the best time per call in ms; add
--benchmark-json=FILE to keep them.
"""

import math

import pytest

from gausslind.discord import _discord_from_logs, _log_sigmas_from_block
from gausslind.symplectic import SqueezingState, covariance_from_squeezing

from conftest import default_map_logs

INPUTS = {
    "plane": default_map_logs(),
    "block": _log_sigmas_from_block(
        covariance_from_squeezing(SqueezingState(2.0, 0.3, 5.0)), -math.pi / 4.0),
}


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_discord_assembly(benchmark, case):
    benchmark.pedantic(_discord_from_logs, args=INPUTS[case], rounds=200,
                       iterations=1, warmup_rounds=5)
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info.update(case=case, per_call_ms=1e3 * benchmark.stats.stats.min)
