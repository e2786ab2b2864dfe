"""The names the benchmark's tracer wraps must exist in the library.

bench/tracer.py replaces library functions through their owners'
__dict__, so a refactor that deletes or renames one of them breaks the
traced benchmark run; these tests catch that in the tier-1 suite.
"""

import importlib.util
import json
from pathlib import Path

from hypervekua import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_library(tmp_path):
    tracing = _tracer_module()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        patched = list(tracer._patched)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "potential": "sech:1:1", "exponents": [1],
            "domain": {"x_min": -0.5, "x_max": 0.5, "t_min": -0.5,
                       "t_max": 0.5, "nx": 5, "nt": 5}}))
        assert cli.main(["powers", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
        calls = tracer.collect()["calls"]
    finally:
        tracer.uninstall()
    assert patched
    # a name patched twice (an alias) is restored to its first original
    before = {}
    for owner, attr, original in patched:
        before.setdefault((owner, attr), original)
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original
    # the CLI reaches the wrapped table writer and grid evaluation
    assert calls["cli.csv"] == 1
    assert calls["cli.grid_eval"] == 1
