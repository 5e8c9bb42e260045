"""Causal span reconstruction over a deterministic trace stream.

The tracer records *events* — instants.  :func:`build_timeline` folds
them back into the run's record — :mod:`repro.metrics.breakdown`'s
rounds and recoveries, the same objects a live scheme holds — by handing
every event to the one transition table, ``RunRecord.apply``:

* **Checkpoint rounds** (``CheckpointLog``): one per application
  checkpoint round, holding every HAU's individual checkpoint
  (``CheckpointBreakdown``) whose ``phase_spans()`` attribute its time
  to token-wait, safepoint-wait, snapshot and disk I/O (Fig. 14).
* **Recoveries** (``RecoveryBreakdown``): detection, per-HAU
  reload/read/deserialise rows (Fig. 16), reconnection, restart.

Everything here is a pure function of the event stream: feed it the
same trace twice and the spans are identical, which is what makes the
Chrome-trace export (:mod:`repro.profiling.chrome_trace`) byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.metrics.breakdown import CheckpointLog, RecoveryBreakdown, RunRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.tracer import TraceEvent


def normalize_events(source: Any) -> list[TraceEvent]:
    """A trace's events in ``seq`` order, from a Tracer, an iterable of
    TraceEvents (passed through as the same objects) or JSONL rows
    (converted here, once: a malformed row is a ``ValueError`` naming
    the row and, when one is absent, the field)."""
    # imported here: repro.observability's package imports this module
    from repro.observability.tracer import TraceEvent

    out: list[TraceEvent] = []
    for i, e in enumerate(getattr(source, "events", source), 1):
        if isinstance(e, TraceEvent):
            out.append(e)
            continue
        try:
            out.append(
                TraceEvent(
                    int(e["seq"]),
                    float(e["t"]),
                    str(e["kind"]),
                    str(e.get("subject", "")),
                    dict(sorted(e.get("data", {}).items())),
                )
            )
        except KeyError as exc:
            raise ValueError(f"trace row {i}: missing field {exc.args[0]!r}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"trace row {i}: {exc}") from None
    out.sort(key=lambda ev: ev.seq)
    return out


@dataclass
class Timeline:
    """Everything the profiler reconstructed from one trace."""

    rounds: list[CheckpointLog] = field(default_factory=list)
    recoveries: list[RecoveryBreakdown] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)
    scheme: str = ""

    def round(self, round_id: int) -> CheckpointLog | None:
        for w in self.rounds:
            if w.round_id == round_id:
                return w
        return None

    def hau_ids(self) -> list[str]:
        ids: set[str] = set()
        for w in self.rounds:
            ids.update(w.haus)
        for r in self.recoveries:
            ids.update(r.haus)
        for e in self.events:
            if e.kind in ("hau.start", "token.send", "token.recv") and e.subject:
                ids.add(e.subject)
        return sorted(ids)


def build_timeline(source: Any) -> Timeline:
    """Fold a trace (tracer, events, or JSONL dicts) into a Timeline."""
    if isinstance(source, Timeline):
        return source
    events = normalize_events(source)
    record = RunRecord()
    haus: set[str] = set()
    for e in events:
        if e.kind == "hau.start":
            haus.add(e.subject)
        elif e.kind == "checkpoint.round.start":
            record.expected_haus = tuple(sorted(haus))
        record.apply(e.kind, e.t, e.subject, e.data)
    return Timeline(
        rounds=sorted(record.logs.values(), key=lambda w: (w.started_at, w.round_id)),
        recoveries=record.recoveries,
        events=events,
        scheme=record.scheme,
    )
