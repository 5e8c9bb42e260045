"""The trace recorder: typed, sim-time-keyed structured events.

A :class:`Tracer` rides on the simulation
:class:`~repro.simulation.core.Environment` (``env.trace``).  Every
instrumented layer — token propagation, per-HAU checkpoints, alert-mode
transitions, failure injection, recovery phases — emits
:class:`TraceEvent` records through it.  The default is
:data:`NULL_TRACER`, whose ``enabled`` flag is False: emission sites
guard with a single attribute check, so an untraced run pays (almost)
nothing.

Determinism contract: an event carries *only* simulation-derived data
(sim time, ids, sizes, counts) — never wall clock, memory addresses or
unsorted collections — so two runs with the same seed produce identical
event streams (see :mod:`repro.observability.export` for the byte-exact
JSONL form).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import Any

from repro.vocabulary import TRACE_KINDS

# Dotted event kinds the instrumented layers emit, in schema order.
KINDS = tuple(TRACE_KINDS)


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record — the only event type: a live
    tracer stores it, and a trace file's rows are read back into it.

    ``data`` is a dict in sorted key order, so its serialised form is
    canonical.
    """

    seq: int  # emission order: a total order within one run
    t: float  # simulated seconds
    kind: str  # dotted event type, e.g. "checkpoint.commit"
    subject: str  # primary entity: HAU id, node id, scheme name, ""
    data: dict[str, Any]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
            "subject": self.subject,
            "data": dict(self.data),
        }


class NullTracer:
    """The default no-op tracer: emission sites see ``enabled == False``
    and skip event construction entirely, so the hot path pays a single
    attribute check when tracing is off."""

    __slots__ = ()

    enabled = False
    events: tuple[TraceEvent, ...] = ()

    def emit(self, kind: str, /, t: float, subject: str = "", **data: Any) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Collects :class:`TraceEvent` records in emission order."""

    enabled = True

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.events: list[TraceEvent] = []
        self._seq = 0

    # ``kind`` is positional-only so a data field may also be named "kind"
    # (e.g. failure.inject carries kind="node"|"rack").
    def emit(self, kind: str, /, t: float, subject: str = "", **data: Any) -> TraceEvent:
        self._seq += 1
        ev = TraceEvent(
            seq=self._seq,
            t=t,
            kind=kind,
            subject=subject,
            data=dict(sorted(data.items())),
        )
        self.events.append(ev)
        return ev

    def splice(self, rows: Iterable[tuple[int, TraceEvent]]) -> None:
        """Insert events recorded apart: each ``(index, event)`` goes in
        before the event now at ``index`` (indices ascending), and
        ``seq`` is renumbered to the new list order."""
        out: list[TraceEvent] = []
        start = 0
        for index, event in rows:
            out += [*self.events[start:index], event]
            start = index
        out += self.events[start:]
        self.events[:] = [e if e.seq == n else replace(e, seq=n) for n, e in enumerate(out, 1)]
        self._seq = len(out)

    # -- queries -----------------------------------------------------------
    def select(
        self,
        kind: str | None = None,
        prefix: str | None = None,
        subject: str | None = None,
    ) -> list[TraceEvent]:
        """Events filtered by exact kind, kind prefix and/or subject."""
        out: Iterator[TraceEvent] = iter(self.events)
        if kind is not None:
            out = (e for e in out if e.kind == kind)
        if prefix is not None:
            out = (e for e in out if e.kind.startswith(prefix))
        if subject is not None:
            out = (e for e in out if e.subject == subject)
        return list(out)

    def counts(self) -> dict[str, int]:
        """Event count per kind (sorted by kind for stable reporting)."""
        acc: dict[str, int] = {}
        for e in self.events:
            acc[e.kind] = acc.get(e.kind, 0) + 1
        return dict(sorted(acc.items()))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer {len(self.events)} events>"
