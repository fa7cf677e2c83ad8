"""The benchmark's traced run wraps dkp5 functions by name (perfbench/spans.py);
a refactor that renames one fails here rather than in that run."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for layer in spans.LAYERS:
        assert callable(getattr(importlib.import_module(layer.module), layer.func)), layer.name
