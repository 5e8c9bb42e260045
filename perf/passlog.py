"""What one pass over a workload records: spans, operation records and
the calibration slices between operations."""

from __future__ import annotations

import gc
from contextlib import contextmanager

from perf.calibrate import REFERENCE_S, Calibrator
from perf.spans import SpanRecorder, total


class PassLog:
    def __init__(self, profiler=None):
        self.rec = SpanRecorder(profiler)
        self.records: list[dict] = []
        self._calibrator = Calibrator()
        self._slice = self._calibrator.slice_seconds()

    @contextmanager
    def operation(self, name: str):
        """Run one operation under its own root span and yield its record
        to fill in.  An operation that raises is recorded as failed, and
        the pass goes on: its failure is a result, not a crash.

        The record's ``wall_s`` and ``setup_s`` are host seconds divided
        by ``slowdown``: how much slower than the reference the
        calibration slices just before and just after the operation ran.
        """
        record = {"name": name, "digest": None, "error": None, "checks": [], "facts": {}}
        first = len(self.rec.spans)
        # The collector stays at its defaults, but each operation starts
        # from a collected heap, as it would in an interpreter of its own:
        # otherwise the previous operation's garbage decides whether a
        # full collection lands inside this one's set-up.
        gc.collect()
        try:
            with self.rec.operation(name):
                yield record
        except Exception as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        before, self._slice = self._slice, self._calibrator.slice_seconds()
        slowdown = (before + self._slice) / 2.0 / REFERENCE_S
        spans = self.rec.spans[first:]
        for span in spans:
            span["slowdown"] = slowdown
        record["slowdown"] = slowdown
        record["raw_wall_s"] = spans[0]["end"] - spans[0]["start"]
        record["wall_s"] = record["raw_wall_s"] / slowdown
        record["setup_s"] = total(spans, "setup")
        self.records.append(record)
