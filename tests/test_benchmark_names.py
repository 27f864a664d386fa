"""The benchmark traces program functions by module and name.

A renamed or deleted function would only show when a traced benchmark run
fails, so the suite checks every name the benchmark lists.
"""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # bench imports its siblings by name
    traced = importlib.import_module("bench").TRACED
    assert traced
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in traced
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
