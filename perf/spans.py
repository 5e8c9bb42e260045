"""Boundary spans and profiler attribution, recorded from outside the program.

A span brackets one call from ``perf/`` into a layer's public function:
name (``<layer>.<what>``), start, end, the span that was open when it
started, and the operation it belongs to.  Spans stay in memory; the
runner writes them out when the benchmark ends.  A span's self time is
its duration minus the part its child spans cover.

``profile_layers`` folds a ``cProfile`` profile into per-layer self time
and call counts by source path: a function under ``src/repro/<layer>/``
belongs to ``<layer>``, everything else (stdlib, numpy, builtins) to
``other``.
"""

from __future__ import annotations

import pstats
import time
from contextlib import contextmanager
from pathlib import Path

# Package names under src/repro/, plus "other" for code outside it.
LAYERS = (
    "simulation", "cluster", "dsps", "apps", "core", "storage", "state",
    "failures", "metrics", "observability", "telemetry", "monitor",
    "profiling", "inspect", "harness", "scenarios", "other",
)


class SpanRecorder:
    """Collects nested spans of one child process (single-threaded)."""

    def __init__(self, profiler=None):
        self.spans: list[dict] = []
        # a cProfile.Profile, switched on inside ``profiled_span`` only
        self.profiler = profiler
        self._open: list[int] = []
        self._op: str | None = None

    @contextmanager
    def span(self, name: str):
        span = {
            "id": len(self.spans),
            "name": name,
            "op": self._op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def profiled_span(self, name: str):
        """A span that the profiler (if the recorder has one) covers."""
        with self.span(name) as span:
            if self.profiler is not None:
                self.profiler.enable()
            try:
                yield span
            finally:
                if self.profiler is not None:
                    self.profiler.disable()

    @contextmanager
    def operation(self, op: str):
        """The root span of one operation; spans inside it share ``op``."""
        self._op = op
        try:
            with self.span("op") as span:
                yield span
        finally:
            self._op = None


def duration(span: dict) -> float:
    """Host seconds of a span, calibrated if its operation was (see
    ``perf/passlog.py``): divided by the host slow-down around it."""
    return (span["end"] - span["start"]) / span.get("slowdown", 1.0)


def self_times(spans: list[dict]) -> dict[int, float]:
    """``{span id: duration minus the time its direct children cover}``."""
    out = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out


def total(spans: list[dict], name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(duration(s) for s in spans if s["name"] == name)


def layer_of(filename: str, package_root: Path) -> str:
    try:
        parts = Path(filename).relative_to(package_root).parts
    except ValueError:
        return "other"
    return parts[0] if len(parts) > 1 and parts[0] in LAYERS else "other"


def profile_layers(profile, package_root: Path) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s": ..., "calls": ...}}`` for every layer."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in pstats.Stats(
        profile
    ).stats.items():
        row = out[layer_of(filename, package_root)]
        row["self_s"] += tottime
        row["calls"] += ncalls
    return out
