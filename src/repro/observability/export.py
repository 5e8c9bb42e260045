"""Deterministic JSONL export of a trace.

One event per line, canonical form: keys sorted, compact separators,
no NaN/Infinity, floats rendered by ``repr`` (shortest round-trip).
Every field is simulation-derived, so two runs with the same seed
produce *byte-identical* output — the property CI and the regression
tests rely on.  :func:`read_jsonl` is the one reader: it turns a file's
rows into :class:`TraceEvent` records, parsed and validated once.
"""

from __future__ import annotations

from collections.abc import Iterable
import json
import math
from typing import Any

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


def _reject_constant(name: str) -> Any:
    raise ValueError(f"{name} is not valid JSON")


# json.loads accepts NaN / Infinity; the writer (allow_nan=False) never
# produces them, so the reader refuses them too.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_FIELDS = (
    ("seq", int, "an integer"),
    ("t", (int, float), "a finite number"),
    ("kind", str, "a string"),
    ("subject", str, "a string"),
    ("data", dict, "an object"),
)


def _event(row: Any) -> TraceEvent:
    if not isinstance(row, dict):
        raise ValueError("not a JSON object")
    for name, types, what in _FIELDS:
        value = row[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"field {name!r} is not {what}: {value!r}")
    if not math.isfinite(row["t"]):
        raise ValueError(f"field 't' is not a finite number: {row['t']!r}")
    return TraceEvent(
        row["seq"], float(row["t"]), row["kind"], row["subject"], dict(sorted(row["data"].items()))
    )


def read_jsonl(path: str) -> list[TraceEvent]:
    """Read a trace file back into its events, validating each row once:
    a row the writer cannot produce (not JSON, a missing field, a field
    of the wrong type, a ``t`` that is not finite, NaN or Infinity
    anywhere, a ``seq`` not above the previous row's) is a ``ValueError``
    naming the row and, when one is absent, the field."""
    out: list[TraceEvent] = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                ev = _event(_DECODER.decode(line))
                if out and ev.seq <= out[-1].seq:
                    raise ValueError(f"seq {ev.seq} does not follow seq {out[-1].seq}")
            except KeyError as exc:
                raise ValueError(f"trace row {i}: missing field {exc.args[0]!r}") from None
            except ValueError as exc:
                raise ValueError(f"trace row {i}: {exc}") from None
            out.append(ev)
    return out
