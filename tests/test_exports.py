import importlib
import importlib.util
from pathlib import Path

import aggmfg

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_exported_name_resolves():
    assert [name for name in aggmfg.__all__ if not hasattr(aggmfg, name)] == []


def test_every_benchmark_span_names_a_function():
    # a wrapped function that is renamed or moved would make its span's metrics read 0
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        name for name, (module, attr) in spans.TARGETS.items()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
