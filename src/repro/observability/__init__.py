"""The trace package: record a run's events, store them, fold them.

One pipeline, one module per stage:

* :mod:`~repro.observability.tracer` — the :class:`Tracer` carried on
  the simulation :class:`~repro.simulation.core.Environment`
  (``env.trace``; :data:`NULL_TRACER` by default, so untraced runs pay
  one attribute check per emission site), recording
  :class:`TraceEvent` — the one event type.
* :mod:`~repro.observability.export` — deterministic JSONL (same seed ⇒
  byte-identical output) and :func:`read_jsonl`, the one reader: a
  file's rows become events, parsed and validated once.
* :mod:`~repro.observability.timeline` — :func:`build_timeline` folds
  the events into the run's rounds and recoveries
  (:mod:`repro.metrics.breakdown`'s types) with per-HAU phase spans.
* :mod:`~repro.observability.critical_path` — the causal chain gating
  each round, and :func:`straggler_report`.
* :mod:`~repro.observability.summary` and
  :mod:`~repro.observability.chrome_trace` — the text report
  (``python -m repro.inspect show TRACE.jsonl`` prints it) and the
  Perfetto / ``chrome://tracing`` export.

Enable with::

    env = Environment()
    tracer = env.enable_tracing()
    ...run...
    write_jsonl(tracer, "run.trace.jsonl")
    print(render_summary(summarize(read_jsonl("run.trace.jsonl"))))

or via the harness: ``run_experiment(cfg, trace=True)``.
"""

from repro.observability.chrome_trace import (
    dumps_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.observability.critical_path import (
    compute_critical_path,
    critical_paths,
    straggler_report,
)
from repro.observability.export import (
    dumps_jsonl,
    event_to_json,
    read_jsonl,
    write_jsonl,
)
from repro.observability.summary import render_summary, summarize, write_summary
from repro.observability.timeline import Timeline, build_timeline
from repro.observability.tracer import NULL_TRACER, TraceEvent, Tracer

__all__ = [
    "NULL_TRACER",
    "Timeline",
    "TraceEvent",
    "Tracer",
    "build_timeline",
    "compute_critical_path",
    "critical_paths",
    "dumps_chrome_trace",
    "dumps_jsonl",
    "event_to_json",
    "read_jsonl",
    "render_summary",
    "straggler_report",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_summary",
]
