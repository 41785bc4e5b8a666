"""The traced benchmark mode looks up the functions it times by name; a
rename under src/ must fail here, not in `perfbench/run.py --trace 1`."""

import importlib.util
import json
from pathlib import Path

import billiards
import billiards.cli  # noqa: F401  (the tracer times cli.main)

ROOT = Path(__file__).resolve().parents[1]


def test_every_per_layer_metric_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    metrics = tracer.Tracer(billiards).metrics(names, 0.0, {})
    assert sorted(metrics) == sorted(names)
