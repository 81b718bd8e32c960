"""Spans around the calls into each ptnm layer, recorded from outside the package.

:func:`install` rebinds the module-level names that callers look up (for
instance ``ptnm.cli.fit``, which ``cli`` resolves at call time) to wrappers
that open a span, and returns a function that restores every name. A hook
whose target no longer exists is reported as unmeasured instead of failing,
so renaming an internal never breaks the untraced benchmark.

Each span records its name, start, end and parent span. A span's self time
is its duration minus the time covered by its child spans; the self times of
all spans under a ``cli.main`` root add up to that root's duration.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    maxima: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total duration, total self time, and call count."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        duration: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, child in zip(self.spans, covered):
            duration[span.name] += span.end - span.start
            self_time[span.name] += span.end - span.start - child
            calls[span.name] += 1
        return duration, self_time, calls


def _plain(tracer: Tracer, name: str):
    def make(original):
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        return wrapper

    return make


def _series(tracer: Tracer):
    def make(original):
        def wrapper(*args, **kwargs):
            kind = kwargs.get("kind", args[1] if len(args) > 1 else "unknown")
            return tracer.call(f"measures.{kind}_series", original, *args, **kwargs)

        return wrapper

    return make


def _fit(tracer: Tracer):
    def make(original):
        def wrapper(*args, **kwargs):
            result = tracer.call("reconstruct.fit", original, *args, **kwargs)
            report = result[1] if isinstance(result, tuple) and len(result) > 1 else None
            if hasattr(report, "final_loss"):
                worst = max(tracer.maxima.get("reconstruct.final_loss", 0.0), float(report.final_loss))
                tracer.maxima["reconstruct.final_loss"] = worst
            return result

        return wrapper

    return make


def _minimize(tracer: Tracer):
    """``scipy.optimize.minimize``, also wrapping the objective it is handed so
    objective and optimizer self time separate; objective spans carry the
    step count ``k`` of the bound ``_Objective`` when there is one."""

    def make(original):
        def wrapper(fun, x0, *args, **kwargs):
            k = getattr(getattr(fun, "__self__", None), "k", None)
            name = "reconstruct.objective" if k is None else f"reconstruct.objective.k{k}"

            def objective(x, *fargs):
                return tracer.call(name, fun, x, *fargs)

            result = tracer.call("reconstruct.minimize", original, objective, x0, *args, **kwargs)
            tracer.counts["reconstruct.iterations"] += getattr(result, "nit", 0)
            return result

        return wrapper

    return make


def _writer(tracer: Tracer):
    def make(original):
        def wrapper(path, *args, **kwargs):
            result = tracer.call("io.write", original, path, *args, **kwargs)
            tracer.counts["io.files_written"] += 1
            tracer.counts["io.bytes_written"] += os.path.getsize(path)
            return result

        return wrapper

    return make


def _hooks(tracer: Tracer) -> list[tuple[str, str, object]]:
    """(module, attribute, wrapper factory) for every traced name."""
    return [
        ("ptnm.cli", "fit", _fit(tracer)),
        ("ptnm.cli", "predict", _plain(tracer, "reconstruct.predict")),
        ("ptnm.cli", "measure_series", _series(tracer)),
        ("ptnm.cli", "nm_ee", _plain(tracer, "measures.nm_ee")),
        ("ptnm.cli", "build", _plain(tracer, "process_tensor.build")),
        ("ptnm.cli", "xx_chain_model", _plain(tracer, "models.xx_chain_model")),
        ("ptnm.cli", "uqdm_memory_series", _plain(tracer, "models.uqdm_memory_series")),
        ("ptnm.cli", "write_csv_atomic", _writer(tracer)),
        ("ptnm.cli", "write_json_atomic", _writer(tracer)),
        ("ptnm.reconstruct", "norm_sq", _plain(tracer, "process_tensor.norm_sq")),
        ("ptnm.models", "uqdm_overlaps", _plain(tracer, "models.uqdm_overlaps")),
        ("ptnm.models", "uqdm_env_entropy", _plain(tracer, "models.uqdm_env_entropy")),
        ("ptnm.measures", "von_neumann_entropy", _plain(tracer, "tensorops.entropy")),
        ("ptnm.measures", "renyi_entropy", _plain(tracer, "tensorops.entropy")),
        ("ptnm.models", "von_neumann_entropy", _plain(tracer, "tensorops.entropy")),
        ("scipy.optimize", "minimize", _minimize(tracer)),
    ]


def install(tracer: Tracer) -> tuple[list[str], Callable[[], None]]:
    """Rebind every hooked name; return the unmeasured hooks and a restore
    function that puts every original back."""
    saved: list[tuple[object, str, object]] = []
    unmeasured: list[str] = []
    for module_name, attr, make in _hooks(tracer):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            unmeasured.append(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return unmeasured, restore
