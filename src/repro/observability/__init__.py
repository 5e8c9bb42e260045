"""Structured tracing for checkpoint/recovery timelines.

Zero-dependency observability spine: a :class:`Tracer` event bus carried
on the simulation :class:`~repro.simulation.core.Environment`
(``env.trace``; :data:`NULL_TRACER` by default so untraced runs pay one
attribute check per emission site), a deterministic JSONL exporter keyed
by sim time (same seed ⇒ byte-identical output), and a summary module
that renders checkpoint timelines and recovery breakdowns.

Enable with::

    env = Environment()
    tracer = env.enable_tracing()
    ...run...
    write_jsonl(tracer, "run.trace.jsonl")
    print(render_summary(summarize(tracer)))

or via the harness: ``run_experiment(cfg, trace=True)``.
"""

from repro.observability.export import (
    JsonlStreamWriter,
    dumps_jsonl,
    event_to_json,
    read_jsonl,
    write_jsonl,
)
from repro.observability.summary import render_summary, summarize, write_summary
from repro.observability.tracer import (
    KINDS,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    events_of,
)

__all__ = [
    "KINDS",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "JsonlStreamWriter",
    "dumps_jsonl",
    "event_to_json",
    "events_of",
    "read_jsonl",
    "render_summary",
    "summarize",
    "write_jsonl",
    "write_summary",
]
