"""Deterministic JSONL export of a trace.

One event per line, canonical form: keys sorted, compact separators,
no NaN/Infinity, floats rendered by ``repr`` (shortest round-trip).
Every field is simulation-derived, so two runs with the same seed
produce *byte-identical* output — the property CI and the regression
tests rely on.
"""

from __future__ import annotations

from collections.abc import Iterable
import json

from repro.observability.tracer import TraceEvent, Tracer

_JSON_KW = dict(sort_keys=True, separators=(",", ":"), allow_nan=False)


def event_to_json(event: TraceEvent) -> str:
    """Canonical single-line JSON for one event."""
    return json.dumps(event.as_dict(), **_JSON_KW)


def dumps_jsonl(source: Tracer | Iterable[TraceEvent]) -> str:
    """The whole trace as JSONL text (trailing newline included)."""
    lines = [event_to_json(e) for e in getattr(source, "events", source)]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(source: Tracer | Iterable[TraceEvent], path: str) -> int:
    """Write the trace to ``path``; returns the number of events."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in getattr(source, "events", source):
            fh.write(event_to_json(e))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str) -> list[dict]:
    """Parse a trace file back into plain dicts, one per line;
    ``repro.profiling.normalize_events`` turns them into events."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
