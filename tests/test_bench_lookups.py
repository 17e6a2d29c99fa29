"""The benchmark in ``perfbench/`` imports package functions and wraps them
by name; a rename in the package fails here, in a second, rather than only
in the benchmark's own, minutes-long test."""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_benchmark_wraps_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness  # noqa: F401  (fails on a renamed import)
    import tracer
    import workloads  # noqa: F401

    unresolved = [(module, attr) for module, attr, _, _ in tracer.WRAPPED
                  if not hasattr(importlib.import_module(module), attr)]
    assert unresolved == []
