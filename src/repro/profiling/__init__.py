"""Causal timeline profiler: spans, critical paths, Perfetto export.

Consumes a run's deterministic trace stream (live tracer, event list or
JSONL dicts) and reconstructs causal structure:

* :func:`build_timeline` — the trace folded into the run's rounds and
  recoveries (:mod:`repro.metrics.breakdown`'s types) with per-HAU phase
  attribution (:mod:`repro.profiling.spans`)
* :func:`compute_critical_path` / :func:`critical_paths` — the longest
  causal chain gating each round, plus :func:`straggler_report`
  (:mod:`repro.profiling.critical_path`)
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — deterministic
  Chrome trace-event JSON for Perfetto / ``chrome://tracing``
  (:mod:`repro.profiling.chrome_trace`)

A timeline is rendered as text by :mod:`repro.observability.summary`
alone; ``python -m repro.inspect show TRACE.jsonl`` prints it.
"""

from repro.profiling.chrome_trace import (
    dumps_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.profiling.critical_path import (
    CriticalPath,
    Hop,
    Straggler,
    compute_critical_path,
    critical_paths,
    straggler_report,
)
from repro.profiling.spans import Timeline, build_timeline, normalize_events

__all__ = [
    "CriticalPath",
    "Hop",
    "Straggler",
    "Timeline",
    "build_timeline",
    "compute_critical_path",
    "critical_paths",
    "dumps_chrome_trace",
    "normalize_events",
    "straggler_report",
    "to_chrome_trace",
    "write_chrome_trace",
]
