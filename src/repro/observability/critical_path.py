"""Token-propagation critical paths and straggler attribution.

For each complete checkpoint round, the critical path is the longest
causal chain that gated ``checkpoint.round.complete``: starting from the
last HAU to commit, walk backwards through its disk write, its snapshot,
the token that released it, the network hop that carried the token, and
the sender's own chain — until the walk reaches the controller's
``control.send`` and the ``checkpoint.round.start`` instant.

The hops are contiguous by construction (each spans exactly the interval
between two consecutive events on the chain), so the hop durations tile
``[round.start, round.complete]`` and their sum equals the round's
wall-clock duration — the invariant the acceptance test checks.

Determinism: every choice point (which commit gated the round, which
token arrived last, which send matched a receive) breaks ties by the
smallest HAU id, so the same trace always yields the same path.

Hop kinds
---------
``round-start``    controller issued the round (zero-width anchor)
``control-hop``    control channel: ``control.send`` → command receipt
``command-wait``   command receipt → token collection done (sources)
``token-insert``   command receipt → 1-hop token enqueued (MS-src+ap)
``token-forward``  own commit → cascade token sent (MS-src)
``token-hop``      ``token.send`` → ``token.recv`` across one edge
``token-wait``     last token arrival → token collection done
``safepoint-wait`` tokens done → individual checkpoint start
``snapshot``       checkpoint start → write start (fork + serialise)
``disk-io``        write start → commit
``round-complete`` gating commit → ``checkpoint.round.complete``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Any

from repro.metrics.breakdown import CheckpointLog
from repro.observability.timeline import build_timeline
from repro.observability.tracer import TraceEvent


@dataclass(frozen=True)
class Hop:
    """One contiguous segment of a round's critical path."""

    kind: str
    subject: str  # HAU id, "src->dst" for token-hop, scheme for anchors
    start: float
    end: float

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }


@dataclass
class CriticalPath:
    """The longest causal chain gating one round's completion."""

    round_id: int
    scheme: str
    started_at: float
    completed_at: float
    gating_hau: str
    hops: list[Hop] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.completed_at - self.started_at

    def hop_sum(self) -> float:
        return sum(h.duration for h in self.hops)

    def as_dict(self) -> dict[str, Any]:
        return {
            "round": self.round_id,
            "scheme": self.scheme,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "seconds": self.seconds,
            "gating_hau": self.gating_hau,
            "hops": [h.as_dict() for h in self.hops],
        }


class _Index:
    """The trace-side lookups a path walk needs beside the timeline's
    per-(HAU, round) instants: token sends / arrivals and control sends."""

    def __init__(self, events: list[TraceEvent]):
        self.recvs: dict[tuple[str, int], list[TraceEvent]] = {}
        self.sends: dict[tuple[str, int], list[TraceEvent]] = {}
        self.controls: dict[str, list[TraceEvent]] = {}
        for e in events:
            if e.kind == "token.recv":
                self.recvs.setdefault((e.subject, int(e.get("round"))), []).append(e)
            elif e.kind == "token.send":
                self.sends.setdefault((e.subject, int(e.get("round"))), []).append(e)
            elif e.kind == "control.send":
                self.controls.setdefault(e.subject, []).append(e)

    def matching_send(self, recv: TraceEvent, round_id: int) -> TraceEvent | None:
        """The ``token.send`` that produced ``recv``: same origin, same
        round, an edge whose destination is the receiver, latest at or
        before the arrival."""
        origin = str(recv.get("origin", ""))
        dst = recv.subject
        best: TraceEvent | None = None
        for s in self.sends.get((origin, round_id), ()):
            edge = str(s.get("edge", ""))
            # edge ids look like "src[0]->dst[1]" (dsps.graph.EdgeSpec)
            if f"->{dst}[" not in edge:
                continue
            if s.t <= recv.t and s.seq < recv.seq and (best is None or s.seq > best.seq):
                best = s
        return best

    def last_control(self, hau_id: str, before: float) -> TraceEvent | None:
        best: TraceEvent | None = None
        for c in self.controls.get(hau_id, ()):
            if c.t <= before and (best is None or c.seq > best.seq):
                best = c
        return best


def _walk(idx: _Index, log: CheckpointLog) -> CriticalPath | None:
    """One complete round's path, last commit back to the round start."""
    if log.completed_at is None:
        return None
    round_id, scheme, started_at = log.round_id, log.scheme, log.started_at

    # The gating commit: the latest one; ties go to the smallest HAU id.
    commits = [bd for bd in log.haus.values() if bd.complete]
    if not commits:
        return None
    latest_t = max(bd.write_end_at for bd in commits)
    gate = min(
        (bd for bd in commits if bd.write_end_at == latest_t), key=lambda bd: bd.hau_id
    )

    hops: list[Hop] = [Hop("round-complete", scheme, latest_t, log.completed_at)]
    cur_hau = gate.hau_id
    visited: set[str] = set()

    def root_through_control(hau_id: str, anchor: float) -> None:
        ctrl = idx.last_control(hau_id, anchor)
        if ctrl is not None:
            hops.append(Hop("control-hop", hau_id, ctrl.t, anchor))
            hops.append(Hop("round-start", scheme, started_at, ctrl.t))

    while cur_hau not in visited:  # defensive: traces are acyclic by design
        visited.add(cur_hau)
        bd = log.haus.get(cur_hau)
        if bd is None or bd.write_start_at is None or bd.start_at is None:
            break
        hops.append(Hop("disk-io", cur_hau, bd.write_start_at, bd.write_end_at))
        hops.append(Hop("snapshot", cur_hau, bd.start_at, bd.write_start_at))
        anchor = bd.start_at
        if bd.tokens_done_at is not None:
            anchor = bd.tokens_done_at
            hops.append(Hop("safepoint-wait", cur_hau, anchor, bd.start_at))
        recvs = [rv for rv in idx.recvs.get((cur_hau, round_id), ()) if rv.t <= anchor]
        if not recvs:
            # No token arrivals: a source; root through command + control.
            if bd.command_at is not None:
                hops.append(Hop("command-wait", cur_hau, bd.command_at, anchor))
                root_through_control(cur_hau, bd.command_at)
            break
        latest = max(rv.t for rv in recvs)
        # Among arrivals at the same instant the chain is gated by
        # all of them; pick the smallest origin id for determinism.
        last = min(
            (rv for rv in recvs if rv.t == latest), key=lambda e: str(e.get("origin", ""))
        )
        hops.append(Hop("token-wait", cur_hau, last.t, anchor))
        send = idx.matching_send(last, round_id)
        origin = str(last.get("origin", ""))
        if send is None:
            break
        hops.append(Hop("token-hop", f"{origin}->{cur_hau}", send.t, last.t))
        sender = log.haus.get(origin)
        if bool(send.get("front", False)):
            # 1-hop token (MS-src+ap family): inserted at command
            # receipt; the chain roots through the control plane.
            root = send.t
            if sender is not None and sender.command_at is not None:
                root = sender.command_at
                hops.append(Hop("token-insert", origin, root, send.t))
            root_through_control(origin, root)
            break
        # Cascade token (MS-src): forwarded after the sender's own
        # synchronous checkpoint — recurse through the sender.
        if sender is None or not sender.complete:
            break
        hops.append(Hop("token-forward", origin, sender.write_end_at, send.t))
        cur_hau = origin

    hops.reverse()
    return CriticalPath(
        round_id=round_id,
        scheme=scheme,
        started_at=started_at,
        completed_at=log.completed_at,
        gating_hau=gate.hau_id,
        hops=hops,
    )


def compute_critical_path(source: Any, round_id: int) -> CriticalPath | None:
    """Reconstruct round ``round_id``'s critical path from a trace (or
    its timeline).

    Returns ``None`` for rounds that never completed (or are absent).
    """
    tl = build_timeline(source)
    log = tl.round(round_id)
    return None if log is None else _walk(_Index(tl.events), log)


def critical_paths(source: Any) -> list[CriticalPath]:
    """Critical paths for every *complete* round, in round order."""
    tl = build_timeline(source)
    idx = _Index(tl.events)
    paths = (_walk(idx, log) for log in sorted(tl.rounds, key=lambda w: w.round_id))
    return [p for p in paths if p is not None]


@dataclass(frozen=True)
class Straggler:
    """An HAU whose checkpoint ran >= k x the round median."""

    round_id: int
    hau_id: str
    seconds: float
    median_seconds: float

    @property
    def ratio(self) -> float:
        if self.median_seconds <= 0.0:
            return 0.0
        return self.seconds / self.median_seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "round": self.round_id,
            "hau": self.hau_id,
            "seconds": self.seconds,
            "median_seconds": self.median_seconds,
            "ratio": self.ratio,
        }


def straggler_report(timeline: Any, k: float = 2.0) -> list[Straggler]:
    """HAUs whose per-round checkpoint time exceeds ``k`` x the round's
    median (command receipt to commit), sorted by round then HAU id."""
    out: list[Straggler] = []
    for wave in build_timeline(timeline).rounds:
        totals = {
            h: bd.elapsed for h, bd in wave.haus.items() if bd.elapsed is not None
        }
        if len(totals) < 2:
            continue
        med = median(sorted(totals.values()))
        for h in sorted(totals):
            if med > 0.0 and totals[h] > k * med:
                out.append(
                    Straggler(
                        round_id=wave.round_id,
                        hau_id=h,
                        seconds=totals[h],
                        median_seconds=med,
                    )
                )
    return out
