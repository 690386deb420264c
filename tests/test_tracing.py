"""The benchmark's tracer wraps lrhive functions by name; a refactor that
renames or moves one breaks traced benchmark runs, so check the names here."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for path, attr in tracing.TARGETS:
        assert callable(getattr(tracing._owner(path), attr, None)), f"{path}.{attr}"
