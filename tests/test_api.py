"""Guard on the surface the benchmark reads: every name its tracer hooks
in the ``ptnm`` submodules still exists as a callable."""

import importlib
import importlib.util
import os
import sys

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def test_every_traced_hook_resolves_to_a_callable(monkeypatch):
    # loaded by path and only read: the hooks are listed, never installed
    spec = importlib.util.spec_from_file_location("ptnm_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    hooks = tracing._hooks(tracing.Tracer())
    assert hooks
    unresolved = [
        f"{module}.{attr}"
        for module, attr, _ in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []
