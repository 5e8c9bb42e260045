"""Causal span reconstruction over a deterministic trace stream.

The tracer (PR 1) records *events* — instants.  This module folds them
back into *spans* — intervals with a start, an end and a phase name —
so a run can be read as a timeline instead of a flat JSONL stream:

* **Checkpoint waves** (:class:`RoundWave`): one per application
  checkpoint round, from ``checkpoint.round.start`` to
  ``checkpoint.round.complete``, holding every HAU's individual
  checkpoint (:class:`HAUCheckpoint`) with per-phase attribution that
  mirrors :mod:`repro.metrics.breakdown` (Fig. 14): token-wait,
  safepoint-wait, snapshot (fork + serialise) and disk I/O.
* **Recovery timelines** (:class:`RecoveryTimeline`): from
  ``failure.inject`` through detection, per-HAU reload/read/deserialise
  (Fig. 16) and reconnection to ``recovery.done``.

Everything here is a pure function of the event stream: feed it the
same trace twice and the spans are identical, which is what makes the
Chrome-trace export (:mod:`repro.profiling.chrome_trace`) byte-stable.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.observability.tracer import NullTracer, TraceEvent, Tracer
from repro.vocabulary import PHASES  # noqa: F401  (re-exported)


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
    if isinstance(source, (Tracer, NullTracer)):
        events: Iterable[Any] = source.events
    else:
        events = source
    out: list[Ev] = []
    for e in events:
        if isinstance(e, Ev):
            out.append(e)
        elif isinstance(e, TraceEvent):
            out.append(Ev(e.seq, e.t, e.kind, e.subject, dict(e.data)))
        else:
            out.append(
                Ev(
                    int(e["seq"]),
                    float(e["t"]),
                    str(e["kind"]),
                    str(e.get("subject", "")),
                    dict(e.get("data", {})),
                )
            )
    out.sort(key=lambda ev: ev.seq)
    return out


@dataclass
class Span:
    """One named interval on one subject's track."""

    name: str
    subject: str
    start: float
    end: float
    round_id: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "subject": self.subject,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "round": self.round_id,
            "attrs": dict(sorted(self.attrs.items())),
        }


@dataclass
class HAUCheckpoint:
    """One HAU's individual checkpoint within one round, as timestamps.

    Unset timestamps are ``None`` (not 0.0): a checkpoint cut short by a
    failure is visibly truncated rather than showing zero-length phases
    — the same distinction :meth:`CheckpointBreakdown.spans` draws.
    """

    hau_id: str
    round_id: int
    command_at: float | None = None
    command_via: str = ""
    tokens_done_at: float | None = None
    start_at: float | None = None
    write_start_at: float | None = None
    commit_at: float | None = None
    mode: str = ""
    state_bytes: int = 0

    @property
    def complete(self) -> bool:
        return self.commit_at is not None

    @property
    def total(self) -> float | None:
        if self.command_at is None or self.commit_at is None:
            return None
        return self.commit_at - self.command_at

    def phase_spans(self) -> list[Span]:
        """The HAU's phases as spans, in causal order; phases never
        reached are simply absent."""
        points = [
            ("token-wait", self.command_at, self.tokens_done_at),
            ("safepoint-wait", self.tokens_done_at, self.start_at),
            ("snapshot", self.start_at, self.write_start_at),
            ("disk-io", self.write_start_at, self.commit_at),
        ]
        spans = []
        for name, a, b in points:
            if a is not None and b is not None:
                spans.append(
                    Span(name, self.hau_id, a, b, round_id=self.round_id)
                )
        return spans

    def as_dict(self) -> dict[str, Any]:
        return {
            "hau": self.hau_id,
            "round": self.round_id,
            "command_at": self.command_at,
            "command_via": self.command_via,
            "tokens_done_at": self.tokens_done_at,
            "start_at": self.start_at,
            "write_start_at": self.write_start_at,
            "commit_at": self.commit_at,
            "mode": self.mode,
            "bytes": self.state_bytes,
            "complete": self.complete,
            "phases": {s.name: s.duration for s in self.phase_spans()},
        }


@dataclass
class RoundWave:
    """One application checkpoint round across every HAU."""

    round_id: int
    scheme: str
    started_at: float
    completed_at: float | None = None
    haus: dict[str, HAUCheckpoint] = field(default_factory=dict)

    def hau(self, hau_id: str) -> HAUCheckpoint:
        hc = self.haus.get(hau_id)
        if hc is None:
            hc = HAUCheckpoint(hau_id=hau_id, round_id=self.round_id)
            self.haus[hau_id] = hc
        return hc

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    @property
    def duration(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def incomplete_haus(self) -> list[str]:
        return sorted(h for h, hc in self.haus.items() if not hc.complete)

    def as_dict(self) -> dict[str, Any]:
        return {
            "round": self.round_id,
            "scheme": self.scheme,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "duration": self.duration,
            "complete": self.complete,
            "incomplete_haus": self.incomplete_haus(),
            "haus": {h: self.haus[h].as_dict() for h in sorted(self.haus)},
        }


@dataclass
class RecoveryHAU:
    """One HAU's reload/read/deserialise phases of one recovery."""

    hau_id: str
    node: str = ""
    start_at: float | None = None
    end_at: float | None = None
    reload_seconds: float = 0.0
    disk_io_seconds: float = 0.0
    deserialize_seconds: float = 0.0
    bytes_read: int = 0

    def phase_spans(self) -> list[Span]:
        if self.start_at is None or self.end_at is None:
            return []
        t0 = self.start_at
        spans = []
        for name, dur in (
            ("reload", self.reload_seconds),
            ("disk-io", self.disk_io_seconds),
            ("deserialize", self.deserialize_seconds),
        ):
            spans.append(Span(name, self.hau_id, t0, t0 + dur))
            t0 += dur
        return spans

    def as_dict(self) -> dict[str, Any]:
        return {
            "hau": self.hau_id,
            "node": self.node,
            "start_at": self.start_at,
            "end_at": self.end_at,
            "reload": self.reload_seconds,
            "disk_io": self.disk_io_seconds,
            "deserialize": self.deserialize_seconds,
            "bytes": self.bytes_read,
        }


@dataclass
class RecoveryTimeline:
    """One global rollback, failure injection through reconnection."""

    scheme: str = ""
    injected_at: list[float] = field(default_factory=list)
    injected_subjects: list[str] = field(default_factory=list)
    detected_at: float | None = None
    started_at: float | None = None
    reconnect_at: float | None = None
    reconnect_seconds: float = 0.0
    done_at: float | None = None
    dead: str = ""
    cut_round: int = 0
    haus: dict[str, RecoveryHAU] = field(default_factory=dict)

    def hau(self, hau_id: str) -> RecoveryHAU:
        rh = self.haus.get(hau_id)
        if rh is None:
            rh = RecoveryHAU(hau_id=hau_id)
            self.haus[hau_id] = rh
        return rh

    @property
    def complete(self) -> bool:
        return self.done_at is not None

    @property
    def total(self) -> float | None:
        if self.started_at is None or self.reconnect_at is None:
            return None
        return self.reconnect_at - self.started_at

    @property
    def detection_lag(self) -> float | None:
        if not self.injected_at or self.detected_at is None:
            return None
        return self.detected_at - self.injected_at[0]

    def as_dict(self) -> dict[str, Any]:
        return {
            "scheme": self.scheme,
            "injected_at": list(self.injected_at),
            "injected_subjects": list(self.injected_subjects),
            "detected_at": self.detected_at,
            "started_at": self.started_at,
            "reconnect_at": self.reconnect_at,
            "reconnect_seconds": self.reconnect_seconds,
            "done_at": self.done_at,
            "dead": self.dead,
            "cut_round": self.cut_round,
            "total": self.total,
            "detection_lag": self.detection_lag,
            "haus": {h: self.haus[h].as_dict() for h in sorted(self.haus)},
        }


@dataclass
class Timeline:
    """Everything the profiler reconstructed from one trace."""

    rounds: list[RoundWave] = field(default_factory=list)
    recoveries: list[RecoveryTimeline] = field(default_factory=list)
    events: list[Ev] = field(default_factory=list)
    scheme: str = ""

    def round(self, round_id: int) -> RoundWave | None:
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

    def as_dict(self) -> dict[str, Any]:
        return {
            "scheme": self.scheme,
            "rounds": [w.as_dict() for w in self.rounds],
            "recoveries": [r.as_dict() for r in self.recoveries],
            "haus": self.hau_ids(),
            "events": len(self.events),
        }


def build_timeline(source: Any) -> Timeline:
    """Fold a trace (tracer, events, or JSONL dicts) into a Timeline."""
    events = normalize_events(source)
    tl = Timeline(events=events)
    waves: dict[int, RoundWave] = {}
    current_rec: RecoveryTimeline | None = None
    pending_injects: list[Ev] = []

    def wave_for(round_id: int, e: Ev) -> RoundWave:
        w = waves.get(round_id)
        if w is None:
            # A round whose start event predates the trace window (or a
            # scheme without round.start) still gets a wave, anchored at
            # the first event seen for it.
            w = RoundWave(
                round_id=round_id, scheme=str(e.get("scheme", "")), started_at=e.t
            )
            waves[round_id] = w
            tl.rounds.append(w)
        return w

    for e in events:
        k = e.kind
        if k == "checkpoint.round.start":
            r = int(e.get("round", 0))
            if r not in waves:
                w = RoundWave(round_id=r, scheme=e.subject, started_at=e.t)
                waves[r] = w
                tl.rounds.append(w)
            tl.scheme = tl.scheme or e.subject
        elif k == "checkpoint.command":
            hc = wave_for(int(e.get("round", 0)), e).hau(e.subject)
            if hc.command_at is None:
                hc.command_at = e.t
                hc.command_via = str(e.get("via", ""))
        elif k == "checkpoint.tokens.done":
            hc = wave_for(int(e.get("round", 0)), e).hau(e.subject)
            if hc.tokens_done_at is None:
                hc.tokens_done_at = e.t
        elif k == "checkpoint.start":
            hc = wave_for(int(e.get("round", 0)), e).hau(e.subject)
            hc.start_at = e.t
            hc.mode = str(e.get("mode", ""))
        elif k == "checkpoint.write.start":
            hc = wave_for(int(e.get("round", 0)), e).hau(e.subject)
            hc.write_start_at = e.t
            hc.state_bytes = int(e.get("bytes", 0))
        elif k == "checkpoint.commit":
            hc = wave_for(int(e.get("round", 0)), e).hau(e.subject)
            hc.commit_at = e.t
            hc.state_bytes = int(e.get("bytes", hc.state_bytes))
        elif k == "checkpoint.round.complete":
            wave_for(int(e.get("round", 0)), e).completed_at = e.t
        elif k == "failure.inject":
            pending_injects.append(e)
        elif k == "failure.detected":
            current_rec = RecoveryTimeline(scheme=e.subject, detected_at=e.t)
            current_rec.injected_at = [i.t for i in pending_injects]
            current_rec.injected_subjects = [i.subject for i in pending_injects]
            pending_injects = []
            tl.recoveries.append(current_rec)
        elif k == "recovery.start":
            if current_rec is None or current_rec.started_at is not None:
                current_rec = RecoveryTimeline(scheme=e.subject)
                tl.recoveries.append(current_rec)
            current_rec.started_at = e.t
            current_rec.dead = str(e.get("dead", ""))
            current_rec.cut_round = int(e.get("cut_round", 0))
        elif k == "recovery.hau.start":
            if current_rec is not None:
                rh = current_rec.hau(e.subject)
                rh.start_at = e.t
                rh.node = str(e.get("node", ""))
        elif k == "recovery.hau":
            if current_rec is not None:
                rh = current_rec.hau(e.subject)
                rh.end_at = e.t
                rh.node = str(e.get("node", rh.node))
                rh.reload_seconds = float(e.get("reload", 0.0))
                rh.disk_io_seconds = float(e.get("disk_io", 0.0))
                rh.deserialize_seconds = float(e.get("deserialize", 0.0))
                rh.bytes_read = int(e.get("bytes", 0))
        elif k == "recovery.reconnect":
            if current_rec is not None:
                current_rec.reconnect_at = e.t
                current_rec.reconnect_seconds = float(e.get("seconds", 0.0))
        elif k == "recovery.done":
            if current_rec is not None:
                current_rec.done_at = e.t
                current_rec = None

    tl.rounds.sort(key=lambda w: (w.started_at, w.round_id))
    return tl
