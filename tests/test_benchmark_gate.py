"""The benchmark's correctness gate: the first round of each perfbench
workload at the reference seed, run through `gausslind.cli.main`, writes
outputs that perfbench/outputs.py finds correct and within the
tolerances of perfbench/reference.json.  The perfbench modules are
loaded from their files and only read."""

import importlib.util
import json
from pathlib import Path

import pytest

from gausslind.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


outputs, workloads = _load("outputs"), _load("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_round_matches_reference(tmp_path, workload):
    reference = outputs.load_reference(BENCH / "reference.json")[workload]
    batch = workloads.first_round(workload, outputs.REFERENCE_SEED)
    assert sorted(cfg["output_path"] for cfg in batch) == sorted(reference)
    for cfg in batch:
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(cfg))
        assert main(["run", str(config), "--out", str(tmp_path)]) == 0, cfg
        out = tmp_path / cfg["output_path"]
        assert outputs.check(cfg, out) == []
        assert outputs.compare(workload, out, reference[cfg["output_path"]]) == []
