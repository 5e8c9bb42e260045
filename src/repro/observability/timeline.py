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
Chrome-trace export (:mod:`repro.observability.chrome_trace`) byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.metrics.breakdown import CheckpointLog, RecoveryBreakdown, RunRecord
from repro.observability.tracer import TraceEvent


@dataclass
class Timeline:
    """One trace folded: its rounds, recoveries, events and scheme."""

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


def fold_record(events: list[TraceEvent]) -> RunRecord:
    """The run record a trace's events fold to: a round expects the HAUs
    started before it, as a live scheme expects its graph's."""
    record = RunRecord()
    haus: set[str] = set()
    for e in events:
        if e.kind == "hau.start":
            haus.add(e.subject)
        elif e.kind == "checkpoint.round.start":
            record.expected_haus = tuple(sorted(haus))
        record.apply(e.kind, e.t, e.subject, e.data)
    return record


def build_timeline(source: Any) -> Timeline:
    """Fold a trace (a Tracer or a list of ``TraceEvent``s in ``seq``
    order, as ``read_jsonl`` returns them) into a Timeline; a Timeline
    is returned as it is."""
    if isinstance(source, Timeline):
        return source
    events = list(getattr(source, "events", source))
    record = fold_record(events)
    return Timeline(
        rounds=sorted(record.logs.values(), key=lambda w: (w.started_at, w.round_id)),
        recoveries=record.recoveries,
        events=events,
        scheme=record.scheme,
    )
