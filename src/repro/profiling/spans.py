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

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.metrics.breakdown import CheckpointLog, RecoveryBreakdown, RunRecord


@dataclass(frozen=True)
class Ev:
    """A normalised trace event: works for live :class:`TraceEvent`
    objects and for dicts round-tripped through JSONL."""

    seq: int
    t: float
    kind: str
    subject: str
    data: dict[str, Any]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


def normalize_events(source: Any) -> list[Ev]:
    """Accept a Tracer, an iterable of TraceEvents, or JSONL dicts."""
    out: list[Ev] = []
    for e in getattr(source, "events", source):
        if isinstance(e, Ev):
            out.append(e)
        elif isinstance(e, Mapping):
            out.append(
                Ev(
                    int(e["seq"]),
                    float(e["t"]),
                    str(e["kind"]),
                    str(e.get("subject", "")),
                    dict(e.get("data", {})),
                )
            )
        else:  # a live TraceEvent
            out.append(Ev(e.seq, e.t, e.kind, e.subject, dict(e.data)))
    out.sort(key=lambda ev: ev.seq)
    return out


@dataclass
class Timeline:
    """Everything the profiler reconstructed from one trace."""

    rounds: list[CheckpointLog] = field(default_factory=list)
    recoveries: list[RecoveryBreakdown] = field(default_factory=list)
    events: list[Ev] = field(default_factory=list)
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
