"""Cost of start-up: a fresh interpreter to `import gausslind.cli`, and to
the written CSV of the default 40x40 approx `discord_map`.

    pytest tests/bench_startup.py --benchmark-only

The file name keeps it out of the default test collection.  Each round
starts one interpreter (`python -c`), so the times include the
interpreter's own start.  Each benchmark's extra_info holds the number of
`scipy.*` modules the child has loaded when it ends and its peak RSS in
MB (`ru_maxrss`); add --benchmark-json=FILE to keep them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gausslind

SRC = str(Path(gausslind.__file__).resolve().parents[1])

CHILD = """
import json, resource, sys
{body}
print(json.dumps([sum(m.startswith("scipy.") for m in sys.modules),
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""
BODIES = {
    "import": "import gausslind.cli",
    "default_map": "from gausslind.cli import main\nassert main(sys.argv[1:]) == 0",
}


@pytest.mark.parametrize("stage", sorted(BODIES))
def test_startup(benchmark, tmp_path, stage):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mode": "discord_map", "output_path": "map.csv"}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", CHILD.format(body=BODIES[stage]),
            "run", str(cfg), "--out", str(tmp_path)]

    def start():
        return subprocess.run(argv, capture_output=True, text=True, env=env, check=True,
                              timeout=120).stdout

    out = benchmark.pedantic(start, rounds=10, iterations=1, warmup_rounds=1)
    scipy_modules, maxrss_kb = json.loads(out.splitlines()[-1])
    if stage == "default_map":
        assert (tmp_path / "map.csv").stat().st_size > 0
    benchmark.extra_info.update(stage=stage, scipy_modules=scipy_modules,
                                peak_rss_mb=maxrss_kb / 1024.0)
