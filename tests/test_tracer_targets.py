"""The benchmark tracer wraps tamerep functions by name; a name that no
longer resolves makes a traced benchmark run crash, so it is caught here."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def test_tracer_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for target in tracer.TARGETS:
        obj = importlib.import_module(f"tamerep.{target.module}")
        for part in target.attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{target.module}.{target.attr}")
    assert missing == []
