"""The checkpoint/recovery record (Figs. 14 and 16) and its one transition table.

Checkpoint time splits into *token collection* (command receipt to the
arrival of tokens from all upstream neighbours), *disk I/O* (writing the
state to stable storage) and *other* (state serialisation and process
creation).  Recovery time splits into *disk I/O* (reading state),
*reconnection* (controller re-wiring the recovered HAUs) and *other*
(operator reload + deserialisation).

A :class:`RunRecord` holds every round and recovery of one run, and
:meth:`RunRecord.apply` is the only code that writes to them: one
``checkpoint.*`` / ``recovery.*`` trace kind with its instant and payload
moves one record forward.  It has two callers — a live scheme
(``CheckpointScheme.transition``, which also emits the trace event) and
the offline fold over a trace (``repro.profiling.build_timeline``) — so
what a scheme holds and what its trace folds to are the same by
construction.  An instant never reached is ``None``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.registry import NULL_REGISTRY
from repro.vocabulary import PHASES


def _between(a: float | None, b: float | None) -> float | None:
    """Length of ``[a, b]`` clamped at zero; None while either end is unset."""
    return None if a is None or b is None else max(0.0, b - a)


@dataclass
class Span:
    """One named interval on one subject's track."""

    name: str
    subject: str
    start: float
    end: float
    round_id: int | None = None

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass
class CheckpointBreakdown:
    """One HAU's individual checkpoint within a round, as instants."""

    hau_id: str
    round_id: int
    command_at: float | None = None
    command_via: str = ""
    tokens_done_at: float | None = None
    start_at: float | None = None
    mode: str = ""
    write_start_at: float | None = None
    write_end_at: float | None = None  # the commit instant
    state_bytes: int = 0
    # Durations the cost model bills, set by the scheme beside the
    # transition: no trace kind carries them, so a fold leaves them 0.0
    # and they take no part in comparing a held record with a folded one.
    fork_seconds: float = field(default=0.0, compare=False)
    serialize_seconds: float = field(default=0.0, compare=False)

    @property
    def token_collection(self) -> float | None:
        return _between(self.command_at, self.tokens_done_at)

    @property
    def disk_io(self) -> float | None:
        return _between(self.write_start_at, self.write_end_at)

    @property
    def other(self) -> float:
        return self.fork_seconds + self.serialize_seconds

    @property
    def total(self) -> float:
        """Fig. 14's sum of the phases reached (safe-point wait excluded)."""
        return (self.token_collection or 0.0) + self.other + (self.disk_io or 0.0)

    @property
    def elapsed(self) -> float | None:
        """Command receipt to commit — what a straggler is measured by."""
        if self.command_at is None or self.write_end_at is None:
            return None
        return self.write_end_at - self.command_at

    @property
    def complete(self) -> bool:
        return self.write_end_at is not None

    def phase_spans(self) -> list[Span]:
        """The phases as spans, in causal order; phases never reached
        are absent."""
        instants = (
            self.command_at, self.tokens_done_at, self.start_at,
            self.write_start_at, self.write_end_at,
        )
        return [
            Span(name, self.hau_id, a, b, self.round_id)
            for name, a, b in zip(PHASES, instants, instants[1:])
            if a is not None and b is not None
        ]

    def as_dict(self) -> dict[str, Any]:
        return {
            "hau": self.hau_id,
            "round": self.round_id,
            "command_at": self.command_at,
            "command_via": self.command_via,
            "tokens_done_at": self.tokens_done_at,
            "start_at": self.start_at,
            "write_start_at": self.write_start_at,
            "commit_at": self.write_end_at,
            "mode": self.mode,
            "bytes": self.state_bytes,
            "complete": self.complete,
            "phases": {s.name: s.duration for s in self.phase_spans()},
        }


@dataclass
class CheckpointLog:
    """All individual checkpoints of one application checkpoint round."""

    round_id: int
    started_at: float
    scheme: str = ""
    haus: dict[str, CheckpointBreakdown] = field(default_factory=dict)
    completed_at: float | None = None
    abandoned_at: float | None = None
    abandon_cause: str = ""
    # Every HAU the round was supposed to cover, stamped at round start.
    # Without it a round interrupted before an HAU even saw the command
    # leaves no breakdown behind, and the round would read as clean.
    expected_haus: tuple[str, ...] = ()

    def breakdown(self, hau_id: str) -> CheckpointBreakdown:
        bd = self.haus.get(hau_id)
        if bd is None:
            bd = CheckpointBreakdown(hau_id=hau_id, round_id=self.round_id)
            self.haus[hau_id] = bd
        return bd

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    @property
    def duration(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def stalled_haus(self) -> list[str]:
        """HAUs that learned of the round and never committed (sorted)."""
        return sorted(h for h, b in self.haus.items() if not b.complete)

    def incomplete_haus(self) -> list[str]:
        """HAUs whose individual checkpoint never finished (sorted).

        Non-empty on rounds cut short by a failure.  Covers both the
        stalled HAUs *and* expected HAUs that never recorded a breakdown
        at all (the command or token died with the failure before
        reaching them).
        """
        missing = {h for h in self.expected_haus if h not in self.haus}
        return sorted(missing.union(self.stalled_haus()))

    def status(self) -> str:
        """``complete``, or why not and how far the round got."""
        if self.complete:
            return "complete"
        why = (
            f"abandoned by {self.abandon_cause} at {self.abandoned_at:.3f}s"
            if self.abandoned_at is not None
            else "open at end of run"
        )
        started = sum(1 for b in self.haus.values() if b.start_at is not None)
        committed = sum(1 for b in self.haus.values() if b.complete)
        of = f" of {len(self.expected_haus)}" if self.expected_haus else ""
        return (
            f"{why} ({len(self.haus)}{of} HAUs reached, "
            f"{started} started, {committed} committed)"
        )

    def slowest(self) -> CheckpointBreakdown | None:
        """The slowest individual checkpoint (the §IV-B measurement for
        MS-src+ap/+aa, where individual checkpoints run in parallel)."""
        done = [b for b in self.haus.values() if b.complete]
        if not done:
            return None
        return max(done, key=lambda b: b.total)

    def wall_clock(self) -> float:
        """Start-of-round to last write completion (the MS-src measurement,
        where token propagation and individual checkpoints overlap)."""
        ends = [b.write_end_at for b in self.haus.values() if b.complete]
        return max(0.0, max(ends) - self.started_at) if ends else 0.0


@dataclass
class HAURecovery:
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


@dataclass
class RecoveryBreakdown:
    """One global rollback, detection through restart (worst case: the
    whole application).  The phase seconds are the slowest HAU's."""

    started_at: float | None = None
    reload_seconds: float = 0.0  # phase 1
    disk_io_seconds: float = 0.0  # phase 2
    deserialize_seconds: float = 0.0  # phase 3
    reconnect_seconds: float = 0.0  # phase 4
    # End of phase 4: recovery time is the sum of the four phases (§IV-C);
    # the source replay that follows, up to ``done_at``, is not part of it.
    completed_at: float | None = None
    haus_recovered: int = 0
    bytes_read: int = 0
    scheme: str = ""
    detected_at: float | None = None
    done_at: float | None = None
    dead: str = ""
    cut_round: int = 0
    haus: dict[str, HAURecovery] = field(default_factory=dict)

    def hau(self, hau_id: str) -> HAURecovery:
        row = self.haus.get(hau_id)
        if row is None:
            row = self.haus[hau_id] = HAURecovery(hau_id=hau_id)
        return row

    @property
    def other(self) -> float:
        return self.reload_seconds + self.deserialize_seconds

    @property
    def complete(self) -> bool:
        """The recovery ran to its end and the application restarted."""
        return self.done_at is not None

    @property
    def total(self) -> float | None:
        return _between(self.started_at, self.completed_at)


def _read_phases(entry: HAURecovery | RecoveryBreakdown, data: Mapping[str, Any]) -> None:
    """One HAU's phase seconds (``recovery.hau``), or the slowest HAU's
    (``recovery.done``): both payloads spell them the same."""
    entry.reload_seconds = float(data.get("reload", 0.0))
    entry.disk_io_seconds = float(data.get("disk_io", 0.0))
    entry.deserialize_seconds = float(data.get("deserialize", 0.0))
    entry.bytes_read = int(data.get("bytes", 0))


@dataclass
class RunRecord:
    """What one run's scheme reported: rounds, rollbacks, 1-safe restarts."""

    logs: dict[int, CheckpointLog] = field(default_factory=dict)
    recoveries: list[RecoveryBreakdown] = field(default_factory=list)
    recovered: list[tuple[float, str]] = field(default_factory=list)
    unrecoverable: list[tuple[float, str]] = field(default_factory=list)
    scheme: str = ""
    # What a log opened by ``checkpoint.round.start`` is expected to
    # cover: the application's HAUs (a scheme knows its graph, a fold
    # collects ``hau.start`` subjects).
    expected_haus: tuple[str, ...] = ()
    # Live records also count the transitions; a fold has no registry.
    telemetry: Any = field(default=NULL_REGISTRY, compare=False, repr=False)
    _open: RecoveryBreakdown | None = field(default=None, compare=False, repr=False)

    def _log(self, data: Mapping[str, Any], t: float, scheme: str | None = None) -> CheckpointLog:
        round_id = int(data.get("round", 0))
        log = self.logs.get(round_id)
        if log is None:
            # A round nobody announced (the baseline's independent
            # checkpoints share a counter, not a start; a trace may open
            # mid-round) is anchored at the first thing known about it.
            if scheme is None:
                scheme = str(data.get("scheme", ""))
            log = self.logs[round_id] = CheckpointLog(round_id, t, scheme)
        return log

    def apply(self, kind: str, t: float, subject: str, data: Mapping[str, Any]):
        """Move the record one transition forward; returns the entry the
        kind touched (None for a kind the record does not follow)."""
        telemetry = self.telemetry
        if kind == "checkpoint.round.start":
            log = self._log(data, t, subject)
            log.expected_haus = self.expected_haus
            self.scheme = self.scheme or subject
            if telemetry.enabled:
                telemetry.counter("ms_checkpoint_rounds_total", scheme=subject).inc()
            return log
        if kind == "checkpoint.round.complete":
            log = self._log(data, t)
            log.completed_at = t
            if telemetry.enabled:
                telemetry.counter(
                    "ms_checkpoint_rounds_completed_total", scheme=subject
                ).inc()
            return log
        if kind == "checkpoint.abandon":
            log = self._log(data, t)
            log.abandoned_at = t
            log.abandon_cause = str(data.get("cause", ""))
            return log
        if kind == "checkpoint.command":
            bd = self._log(data, t).breakdown(subject)
            if bd.command_at is None:
                bd.command_at = t
                bd.command_via = str(data.get("via", ""))
            return bd
        if kind == "checkpoint.tokens.done":
            bd = self._log(data, t).breakdown(subject)
            if bd.tokens_done_at is None:
                bd.tokens_done_at = t
            return bd
        if kind == "checkpoint.start":
            bd = self._log(data, t).breakdown(subject)
            bd.start_at = t
            bd.mode = str(data.get("mode", ""))
            return bd
        if kind == "checkpoint.write.start":
            bd = self._log(data, t).breakdown(subject)
            bd.write_start_at = t
            bd.state_bytes = int(data.get("bytes", 0))
            return bd
        if kind == "checkpoint.commit":
            bd = self._log(data, t).breakdown(subject)
            bd.write_end_at = t
            bd.state_bytes = int(data.get("bytes", bd.state_bytes))
            if telemetry.enabled and bd.write_start_at is not None:
                scheme = str(data.get("scheme", ""))
                seconds = t - bd.write_start_at
                telemetry.histogram("ms_checkpoint_write_seconds", scheme=scheme).observe(seconds)
                telemetry.counter("ms_checkpoint_bytes_total", scheme=scheme).inc(bd.state_bytes)
                telemetry.gauge("ms_hau_ckpt_write_seconds", hau=subject).set(seconds)
            return bd
        if kind == "failure.detected":
            rec = self._open = RecoveryBreakdown(scheme=subject, detected_at=t)
            self.recoveries.append(rec)
            return rec
        if kind == "recovery.start":
            rec = self._open
            if rec is None or rec.started_at is not None:
                rec = self._open = RecoveryBreakdown(scheme=subject)
                self.recoveries.append(rec)
            rec.started_at = t
            rec.dead = str(data.get("dead", ""))
            rec.cut_round = int(data.get("cut_round", 0))
            return rec
        if kind == "baseline.recover.done":
            self.recovered.append((t, subject))
            if telemetry.enabled:
                telemetry.counter("ms_baseline_recovered_total").inc()
            return None
        if kind == "baseline.unrecoverable":
            self.unrecoverable.append((t, subject))
            if telemetry.enabled:
                telemetry.counter(
                    "ms_baseline_unrecoverable_total", cause=str(data.get("cause", ""))
                ).inc()
            return None
        rec = self._open
        if rec is None:
            return None
        if kind == "recovery.hau.start":
            row = rec.hau(subject)
            row.start_at = t
            row.node = str(data.get("node", ""))
        elif kind == "recovery.hau":
            row = rec.hau(subject)
            row.end_at = t
            row.node = str(data.get("node", row.node))
            _read_phases(row, data)
        elif kind == "recovery.reconnect":
            rec.completed_at = t
            rec.reconnect_seconds = float(data.get("seconds", 0.0))
        elif kind == "recovery.done":
            rec.done_at = t
            _read_phases(rec, data)
            rec.haus_recovered = int(data.get("haus", 0))
            self._open = None
            if telemetry.enabled:
                telemetry.counter("ms_recoveries_total", scheme=subject).inc()
                telemetry.histogram("ms_recovery_seconds", scheme=subject).observe(rec.total)
        else:
            return None
        return rec
