"""The benchmark tracer (perfbench/tracer.py) patches gausslind by name:
every target it lists must exist, and the exact route must reach the Gamma
functions through the module globals it patches, or their counts read 0
(perfbench/selftest.py requires them > 0 on map_exact)."""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

from gausslind.cosmology import CosmoParams, discord_cosmo

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, attr", [t[:2] for t in tracer.SPANS + tracer.COUNTS])
def test_target_resolves(module, attr):
    target = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(target)


def test_exact_route_is_traced():
    for module, _, _ in tracer.SPANS + tracer.COUNTS:
        importlib.import_module(module)
    # nodes from x = 0.3 to 1/ellH = 5 take both Gamma branches (|z| = 2x)
    with tracer.Tracer() as t:
        discord_cosmo(0.3, -0.4, CosmoParams(0.0, 2.1, 0.2), "exact",
                      kGamma_over_kstar=[0.1, 1.0])
    summary = t.summary()
    assert t.counts["specfun.gamma.series"] > 0
    assert t.counts["specfun.gamma.cf"] > 0
    for span in ("specfun.gamma", "specfun.oscillatory_moment",
                 "cosmology.exact_open_covariance", "cosmology.exact_open_det"):
        assert summary[span]["calls"] > 0, span
