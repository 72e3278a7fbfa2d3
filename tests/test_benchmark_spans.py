"""The traced benchmark run wraps library functions by name: every per-layer
metric ``<layer>.<fn>.calls/total_s/self_s`` of a library module names a
public function of it (``<layer>.<Class>.<method>.…`` a method), so renaming
one breaks ``perfbench/run.py --trace 1``. BENCHMARK.json is only read here."""
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SPAN_STATS = ("calls", "total_s", "self_s")


def _library_spans():
    """Dotted ``<layer>.<fn>`` (or ``<layer>.<Class>.<method>``) span names."""
    spans = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        span, _, stat = metric["name"].rpartition(".")
        layer = span.partition(".")[0]
        if stat in SPAN_STATS and importlib.util.find_spec(f"isorep.{layer}"):
            spans.add(span)
    return sorted(spans)


def test_benchmark_names_library_spans():
    spans = _library_spans()
    assert "induced.GridRep2.V" in spans
    assert len(spans) >= 15


@pytest.mark.parametrize("span", _library_spans())
def test_benchmark_span_names_a_public_callable(span):
    layer, name, *attrs = span.split(".")
    module = importlib.import_module(f"isorep.{layer}")
    assert name in module.__all__
    target = getattr(module, name)
    for attr in attrs:
        target = getattr(target, attr)
    assert callable(target)
