"""HAU runtime: the SPE loop hosting one HAU's operator chain on a node.

This is where the paper's execution semantics live:

* **Per-edge FIFO intake with backpressure.** Each inbound edge has its
  own reliable channel; every delivery is moved into a bounded inbox by
  the call that announces it (:meth:`HAURuntime._pull` — no process per
  edge).  When the HAU stalls (e.g. a synchronous checkpoint), the
  inbox fills, each edge is left holding one item, channel buffers
  fill, and upstream sends block — the cascading disruption the paper
  measures in Fig. 15.
* **Token alignment.** When the main loop dequeues a token for edge *e*,
  edge *e* is blocked: subsequent tuples from *e* are held back, while
  other edges keep flowing ("HAU 5 then stops processing tuples from
  HAU 3 ... can still process tuples from HAU 4", §III-A).  The hosted
  checkpoint scheme decides what happens when tokens have arrived on all
  edges.
* **Stream-boundary snapshots.** ``pre_token_backlog`` captures, per
  edge, the tuples that *precede* the token but are not yet processed —
  part of the individual checkpoint, so that on recovery no pre-token
  tuple is lost (the upstream will not regenerate them).

Scheme integration is through the hooks of
:class:`~repro.dsps.runtime.CheckpointScheme`; the runtime itself is
scheme-agnostic.
"""

from __future__ import annotations

import sys
import zlib
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cluster.channel import Channel, ChannelClosedError
from repro.cluster.node import Node
from repro.dsps.graph import EdgeSpec, HAUSpec
from repro.dsps.operator import Emit, Operator, OperatorContext, SourceOperator
from repro.dsps.tuples import DataTuple, Token, is_token
from repro.simulation.core import Environment, Event, Interrupt, Process
from repro.simulation.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dsps.runtime import CheckpointScheme

_NAN_HASH = sys.hash_info.nan  # 0: what hash() gave every NaN before 3.10
# keys that route by their numeric hash (np.float64 is a float already)
_NUMBERS = (int, float, np.integer, np.floating, np.bool_)


def stable_route_hash(key: Any) -> int:
    """PYTHONHASHSEED-independent routing hash.

    ``hash(str)`` is salted per process, so using it to pick an out-edge
    would route the same key differently between runs and break the
    same-seed digest contract.  Numeric hashes are unsalted in CPython,
    so ints/floats (and tuples of them — CPython's tuple hash combines
    the already-stable element hashes, and numeric hashes are fixpoints
    of re-hashing) keep their historical routing and the pinned digests
    are unchanged; salted types reroute through crc32 of a stable
    encoding.  A NumPy integer, bool or float routes as the equal Python
    number: NumPy defines its scalars' hashes to match, where their
    ``repr`` (``np.int64(5)``) would send equal keys to different edges.
    A NaN is the exception among numerics: since Python 3.10
    ``hash(nan)`` is its object's identity, so every NaN (a float, a
    numpy float, one inside a tuple) takes ``sys.hash_info.nan``, the
    value ``hash`` gave all of them before.
    """
    if isinstance(key, _NUMBERS):
        if key != key:
            return _NAN_HASH
        # unsalted and process-stable for numerics
        return hash(key)  # repro-lint: disable=DET006
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, tuple):
        # element hashes stabilised first, then CPython's tuple combiner
        return hash(tuple(stable_route_hash(e) for e in key))  # repro-lint: disable=DET006
    return zlib.crc32(repr(key).encode("utf-8"))


def _until_accepted(accepted: Event):
    """Process generator: wait for a full outbox to take a message.

    The channel closing meanwhile is the broken edge the senders skip
    anyway when they find it closed beforehand (the preservation hook has
    run by then, so the tuple is retained for replay)."""
    try:
        yield accepted
    except ChannelClosedError:
        pass


class _Nudge:
    """Sentinel inbox item that wakes an idle main loop so it passes a
    scheme safe-point (see :meth:`HAURuntime.request_safepoint`)."""

    __slots__ = ()


_NUDGE = _Nudge()


class HAURuntime:
    """One HAU running on one node."""

    # Slotted: one instance per HAU, and with more than 30 attributes a
    # plain instance would carry a private combined dict (CPython shares
    # keys only up to 30), ~1.6 KB a HAU and slower attribute lookups.
    # __weakref__ lets tests prove a rolled-back HAU is not kept alive.
    __slots__ = (
        "env", "spec", "hau_id", "node", "scheme", "metrics",
        "_trace", "operators", "ctx", "in_edges", "out_edges", "in_channels",
        "out_channels", "_out_seq", "_route_cache", "_dst_ports",
        "_hook_on_emit", "inbox", "inbox_capacity", "_hands",
        "_slot_waiters", "_parked", "intake_open", "_intake_waiters", "blocked_edges",
        "holdback", "_in_seq", "_replay_backlog", "_replay_out",
        "_replay_source", "tuples_processed", "busy_time", "busy_total", "_proc",
        "torn_down", "__weakref__",
    )

    def __init__(
        self,
        env: Environment,
        spec: HAUSpec,
        node: Node,
        in_edges: list[EdgeSpec],
        out_edges: list[EdgeSpec],
        scheme: CheckpointScheme,
        rngs: RngRegistry,
        metrics,
        inbox_capacity: int,
        restored: dict | None = None,
    ):
        self.env = env
        self.spec = spec
        self.hau_id = spec.hau_id
        self.node = node
        self.scheme = scheme
        self.metrics = metrics
        self._trace = env.trace  # cached: one attribute check per emission site

        self.operators: list[Operator] = spec.make_operators()
        if not self.operators:
            raise ValueError(f"HAU {self.hau_id} has no operators")
        self.ctx = ctx = OperatorContext(hau_id=self.hau_id, rngs=rngs)
        for op in self.operators:
            op.setup(ctx)

        self.in_edges = in_edges  # the caller's copies: kept, never mutated
        self.out_edges = out_edges
        self.in_channels: list[Channel | None] = [None] * len(in_edges)
        self.out_channels: dict[str, Channel] = {}  # edge_id -> channel
        self._out_seq: dict[str, int] = {e.edge_id: 0 for e in out_edges}
        # Hot-path caches.  Out-edges and in-edge ports are fixed for the
        # runtime's lifetime (rewires swap channels, not edges), so the
        # per-port routing groups and per-edge input ports are computed
        # once.  A scheme that leaves the on_emit hook at the no-op base
        # implementation is not called at all.
        # port -> (its edges, a hash group's one-edge tuples or None)
        self._route_cache: dict[int, tuple[tuple[EdgeSpec, ...], tuple | None]] = {}
        self._dst_ports: list[int] = [e.dst_port for e in in_edges]
        self._hook_on_emit = scheme.active_hook("on_emit")

        # Bounded intake queue of (edge_idx, item).  An edge whose next
        # item finds it full (or finds others queued) keeps that item in
        # its hand and joins _slot_waiters — as do nudges, edge -1 — and
        # each pop admits the longest waiter.  Both are allocated by the
        # first item that has to wait (the shared-empty-tuple idiom).
        # A list, not a deque: it never holds more than inbox_capacity
        # items (`RuntimeConfig`'s 32), so pop(0) moves at most that many
        # pointers, and an empty deque would cost a 760-byte block.
        self.inbox: list[tuple[int, Any]] = []
        self.inbox_capacity = inbox_capacity
        self._hands: list[Any] | None = None  # per in-edge; None = empty
        self._slot_waiters: list[int] | tuple[()] = ()
        # The loop's process while it is parked (an idle main loop or a
        # finished source), else None.
        self._parked: Process | None = None
        # Intake pause (synchronous checkpoints): while closed, the loops
        # wait on events released in FIFO order when it reopens; the
        # waiter list is allocated by the first one (shared-() idiom).
        self.intake_open = True
        self._intake_waiters: list[Event] | tuple[()] = ()
        self.blocked_edges: set[int] = set()
        self.holdback: dict[int, list[DataTuple]] = {}  # appended, then drained whole
        # last processed sequence per in-edge: duplicate suppression after
        # recovery (a replayed/resent tuple with seq <= this is dropped)
        self._in_seq: dict[int, int] = dict.fromkeys(range(len(in_edges)), 0)
        # restart support: items to re-process / re-emit before normal work
        # (only ever rebound, never appended to, so empty is the shared ())
        self._replay_backlog: Sequence[tuple[int, DataTuple]] = ()
        self._replay_out: Sequence[tuple[str, DataTuple]] = ()
        self._replay_source: Sequence[DataTuple] = ()

        self.tuples_processed = 0
        self.busy_time = 0.0  # this incarnation's
        self.busy_total = 0.0  # the HAU id's, over every incarnation (DSPSRuntime carries it)
        self._proc: Process | None = None  # the main or source loop
        # Set by kill_local_processes: a rolled-back incarnation is never
        # restarted (rewire builds its successor), so the controller must
        # not bind a control link to it.
        self.torn_down = False

        if restored:
            self._apply_restore(restored)

    # -- wiring (done by DSPSRuntime) ------------------------------------------
    def attach_in_channel(self, edge_idx: int, chan: Channel) -> None:
        self.in_channels[edge_idx] = chan

    def replace_in_channel(self, edge_idx: int, chan: Channel) -> None:
        """Swap in a fresh inbound channel (downstream side of a single-HAU
        restart).  What the broken one delivered and this HAU has not yet
        had room for stays ahead of everything the new one brings."""
        old = self.in_channels[edge_idx]
        if old is not None and old.pending:
            chan._inbox.extend(old._inbox)
            old._inbox.clear()
        self.in_channels[edge_idx] = chan
        chan.bind(self._pull, edge_idx)

    def attach_out_channel(self, edge: EdgeSpec, chan: Channel) -> None:
        self.out_channels[edge.edge_id] = chan

    def start(self) -> None:
        """Open the intake and spawn the main loop on the host node."""
        for idx, chan in enumerate(self.in_channels):
            if chan is not None:
                chan.bind(self._pull, idx)
        if self.is_source:
            self._proc = self.node.spawn(self._source_loop(), label=f"{self.hau_id}.src")
        else:
            self._proc = self.node.spawn(self._main_loop(), label=f"{self.hau_id}.main")
        if self._trace.enabled:
            self._trace.emit(
                "hau.start", t=self.env.now, subject=self.hau_id, node=self.node.node_id
            )

    # -- classification -----------------------------------------------------------
    @property
    def rng(self) -> np.random.Generator:
        """This HAU's named random stream (resolved on first read)."""
        return self.ctx.rng

    @property
    def is_source(self) -> bool:
        return self.spec.is_source

    @property
    def is_sink(self) -> bool:
        return self.spec.is_sink

    @property
    def source_operator(self) -> SourceOperator:
        op = self.operators[0]
        assert isinstance(op, SourceOperator)
        return op

    # -- state access ----------------------------------------------------------------
    def state_size(self) -> int:
        """Sum of constituent operators' states (§II-A: HAU state)."""
        return sum(op.state_size() for op in self.operators)

    def snapshot_operators(self) -> list[dict]:
        return [op.snapshot() for op in self.operators]

    def pre_token_backlog(self, round_id: int) -> list[tuple[int, DataTuple]]:
        """Unprocessed tuples that precede round ``round_id``'s tokens.

        Walks the inbox: for each edge whose token for this round is still
        queued, tuples of that edge ahead of the token are pre-token.  For
        edges already blocked (token processed), the pre-token tuples were
        all processed, so only post-token holdback exists — excluded.
        """
        backlog: list[tuple[int, DataTuple]] = []
        token_seen: set[int] = set()
        for edge_idx, item in self.inbox:
            if is_token(item):
                if item.round_id == round_id:
                    token_seen.add(edge_idx)
                continue
            if edge_idx in token_seen or edge_idx in self.blocked_edges:
                continue
            if item.__class__ is DataTuple:  # a queued _NUDGE is not stream data
                backlog.append((edge_idx, item))
        return backlog

    # -- checkpoint/restore plumbing -----------------------------------------------------
    def build_checkpoint_payload(
        self,
        round_id: int,
        extra_out: list[tuple[str, DataTuple]] | None = None,
        include_backlog: bool = True,
    ) -> dict:
        """The individual checkpoint: operator snapshots + saved tuples.

        ``include_backlog=False`` is for schemes without stream-boundary
        tokens (the baseline), where unprocessed input is covered by
        upstream input preservation instead of the checkpoint.
        """
        backlog = self.pre_token_backlog(round_id) if include_backlog else []
        return {
            "hau_id": self.hau_id,
            "round_id": round_id,
            "operators": self.snapshot_operators(),
            "backlog": list(backlog),
            "out_tuples": list(extra_out or []),
            "out_seq": dict(self._out_seq),
            "in_seq": dict(self._in_seq),
            "state_size": self.state_size()
            + sum(t.size for (_e, t) in backlog)
            + sum(t.size for (_eid, t) in (extra_out or [])),
        }

    def _apply_restore(self, payload: dict) -> None:
        snaps = payload.get("operators", [])
        for op, snap in zip(self.operators, snaps):
            op.restore(snap)
        self._replay_backlog = list(payload.get("backlog", []))
        self._replay_out = list(payload.get("out_tuples", []))
        self._out_seq.update(payload.get("out_seq", {}))
        self._in_seq.update(payload.get("in_seq", {}))

    # -- intake control (used by schemes) ---------------------------------------------
    def pause_intake(self) -> None:
        self.intake_open = False

    def resume_intake(self) -> None:
        """Reopen the intake and release its waiters, first come first."""
        self.intake_open = True
        waiters, self._intake_waiters = self._intake_waiters, ()
        for ev in waiters:
            ev.succeed()

    def intake(self) -> Event:
        """An event that fires once the intake is open: already succeeded
        when it is (a scheduler turn, nothing longer), else released by
        :meth:`resume_intake`."""
        ev = self.env.event(name="intake")
        if self.intake_open:
            ev.succeed()
        else:
            self._intake_waiters = [*self._intake_waiters, ev]
        return ev

    def block_edge(self, edge_idx: int) -> None:
        self.blocked_edges.add(edge_idx)
        self.holdback.setdefault(edge_idx, [])

    def unblock_all_edges(self) -> list[tuple[int, DataTuple]]:
        """Clear blocks; returns held-back items in arrival order per edge."""
        drained: list[tuple[int, DataTuple]] = []
        for edge_idx in sorted(self.holdback):
            drained.extend((edge_idx, item) for item in self.holdback[edge_idx])
        self.blocked_edges.clear()
        self.holdback.clear()
        return drained

    def release_holdback(self, bd):
        """Unblock every edge and process what was held back behind the
        tokens, in arrival order per edge (after an individual checkpoint
        has begun), counting it on ``bd``, the checkpoint breakdown that
        released it. Generator."""
        drained = self.unblock_all_edges()
        bd.holdback_drained += len(drained)
        overhead, record = self._tuple_hooks()
        for edge_idx, item in drained:
            yield from self._process_tuple(edge_idx, item, overhead, record)

    # -- emission -------------------------------------------------------------------------
    def route_edges(self, emit: Emit) -> Sequence[EdgeSpec]:
        """Which out-edges receive this emission (port match + routing)."""
        port = emit.port
        route = self._route_cache.get(port)
        if route is None:
            group = tuple(e for e in self.out_edges if e.src_port == port)
            hashed = len(group) > 1 and group[0].routing == "hash"
            route = (group, tuple((e,) for e in group) if hashed else None)
            self._route_cache[port] = route
        group, singles = route
        if singles is None:
            return group  # broadcast (or empty / single edge)
        key = emit.key
        return singles[stable_route_hash(key) % len(singles) if key is not None else 0]

    def emit(
        self,
        emit_spec: Emit,
        created_at: float,
        source: str,
        edges: Sequence[EdgeSpec] | None = None,
        first: int = 0,
        pending: DataTuple | None = None,
    ):
        """Route, hook, and send one emission.  Work or None.

        None when the scheme's ``on_emit`` had no work and every routed
        send was accepted at once: the emission is done.  Otherwise the
        generator the caller must drive with ``yield from``: it finishes
        the edge that had to wait, then re-enters this loop for the rest
        (``edges`` / ``first`` / ``pending`` carry that resumption; a
        caller passes only the first three arguments).

        The scheme hook (preservation) runs before the send and even when
        the channel is currently broken: a tuple emitted while the
        downstream neighbour is dead must still be retained so it can be
        replayed once the neighbour is restarted.  Only a send into a
        full outbox waits.
        """
        if edges is None:
            edges = self.route_edges(emit_spec)
        out_seq = self._out_seq
        out_channels = self.out_channels
        hook = self._hook_on_emit
        for i in range(first, len(edges)):
            eid = edges[i].edge_id
            if pending is not None:
                tup, pending = pending, None  # the hook's work has run
            else:
                out_seq[eid] = seq = out_seq[eid] + 1
                # positional: payload, size, key, created_at, seq, source
                tup = DataTuple(
                    emit_spec.payload, emit_spec.size, emit_spec.key, created_at, seq, source
                )
                if hook is not None and (work := hook(self, edges[i], tup)) is not None:
                    return self._emit_after(work, emit_spec, created_at, source, edges, i, tup)
            chan = out_channels.get(eid)
            if chan is None or chan.closed:
                continue
            accepted = chan.send(tup, tup.size)
            if not accepted._flushed:
                return self._emit_after(
                    _until_accepted(accepted), emit_spec, created_at, source, edges, i + 1, None
                )
        return None

    def _emit_after(self, work, emit_spec, created_at, source, edges, first, pending):
        """Generator: drive ``work``, then the rest of :meth:`emit`."""
        yield from work
        if (rest := self.emit(emit_spec, created_at, source, edges, first, pending)) is not None:
            yield from rest

    def _token_sent(self, token: Token, edge_id: str, front: bool) -> None:
        """Record one send of ``token`` down ``edge_id`` in the trace."""
        if self._trace.enabled:
            self._trace.emit(
                "token.send",
                t=self.env.now,
                subject=self.hau_id,
                round=token.round_id,
                edge=edge_id,
                token_kind=token.kind,
                front=front,
            )

    def emit_token(self, token: Token):
        """Process generator: send ``token`` down every out-edge, in order."""
        for edge in self.out_edges:
            chan = self.out_channels.get(edge.edge_id)
            if chan is None or chan.closed:
                continue
            self._token_sent(token, edge.edge_id, front=False)
            accepted = chan.send(token, token.size)
            if not accepted._flushed:
                yield from _until_accepted(accepted)

    def emit_token_front(self, token: Token) -> None:
        """Send ``token`` at the *head* of every output queue (1-hop tokens,
        §III-B: "immediately inserted to the output buffers and placed at
        the head of the queue").  Synchronous — never blocks."""
        for edge in self.out_edges:
            chan = self.out_channels.get(edge.edge_id)
            if chan is None or chan.closed:
                continue
            self._token_sent(token, edge.edge_id, front=True)
            chan.send_front(token, size=token.size)

    def outbox_tuples(self) -> list[tuple[str, DataTuple]]:
        """Data tuples currently queued (unsent) in the output buffers.

        When a 1-hop token is inserted at the head of a queue, anything
        already queued becomes post-token on the wire and must be saved
        with the checkpoint (the paper's tuples 1, 2 in Fig. 8)."""
        out: list[tuple[str, DataTuple]] = []
        for edge in self.out_edges:
            chan = self.out_channels.get(edge.edge_id)
            if chan is None:
                continue
            for item in chan._outbox:
                if isinstance(item, DataTuple):
                    out.append((edge.edge_id, item))
        return out

    def set_replay_source(self, tuples: list[DataTuple]) -> None:
        """Queue preserved tuples for full-speed replay after recovery."""
        self._replay_source = list(tuples)

    def request_safepoint(self) -> None:
        """Wake this HAU's loop if it is idle so the scheme's safe-point
        hook runs promptly (periodic baseline checkpoints, queued replays,
        a source's checkpoint command).  A source waiting out a tuple's
        delay or finished is unparked; one still emitting a tuple
        (preserving it, or blocked in its send) reaches its safe-point
        when the emission completes.  A main loop is nudged through its
        inbox."""
        if self.is_source:
            if (parked := self._parked) is not None:
                self._parked = None
                self.env.unpark(parked)
        elif not self.enqueue(-1, _NUDGE):
            self._slot_waiters = [*self._slot_waiters, -1]

    def resend(self, edge_id: str, tup: DataTuple):
        """Re-emit a saved in-flight tuple after recovery (same seq).

        Takes a scheduler turn per tuple even when the send is accepted
        at once: every HAU restarts at the same instant, and co-located
        ones then share their node's NIC message by message instead of
        one flushing its whole backlog ahead of the others'."""
        chan = self.out_channels.get(edge_id)
        if chan is None or chan.closed:
            return
        yield from _until_accepted(chan.send(tup, tup.size))

    def _resend_replay_out(self):
        """Generator: re-send the in-flight outputs a restored checkpoint
        carried (the tuples "between the incoming tokens and the output
        tokens"); the first thing either loop does after recovery."""
        if self._replay_out and self._trace.enabled:
            self._trace.emit(
                "replay.out",
                t=self.env.now,
                subject=self.hau_id,
                count=len(self._replay_out),
            )
        for edge_id, tup in self._replay_out:
            yield from self.resend(edge_id, tup)
        self._replay_out = ()

    # -- intake ----------------------------------------------------------------------------
    def enqueue(self, edge_idx: int, item: Any) -> bool:
        """Put ``item`` in the inbox, unparking the main loop if it is idle.

        False — and nothing done — if the inbox is full or others are
        already queued for a slot; the caller then joins that queue."""
        if self._slot_waiters or len(self.inbox) >= self.inbox_capacity:
            return False
        self.inbox.append((edge_idx, item))
        parked = self._parked
        if parked is not None:
            self._parked = None
            self.env.unpark(parked)
        return True

    def _pull(self, edge_idx: int) -> None:
        """Move what in-edge ``edge_idx`` has delivered into the inbox.

        Called by the edge's channel at every delivery and when it
        closes, and by :meth:`_admit` once the edge's hand is empty
        again.  A token announces itself (``on_token_arrival``) when it
        comes off the channel — the head of its edge — whether or not
        the inbox has room for it yet.
        """
        if self.torn_down or not self.node.alive:
            return
        hands = self._hands
        if hands is not None and hands[edge_idx] is not None:
            return
        chan = self.in_channels[edge_idx]
        delivered = chan._inbox  # take() pops it and lets a landed item in
        while delivered:
            item = chan.take()
            if item.__class__ is Token:
                if self._trace.enabled:
                    self._trace.emit(
                        "token.recv",
                        t=self.env.now,
                        subject=self.hau_id,
                        round=item.round_id,
                        edge_idx=edge_idx,
                        origin=item.origin,
                        token_kind=item.kind,
                    )
                self.scheme.on_token_arrival(self, edge_idx, item)
            if not self.enqueue(edge_idx, item):
                if hands is None:
                    self._hands = hands = [None] * len(self.in_edges)
                hands[edge_idx] = item
                self._slot_waiters = [*self._slot_waiters, edge_idx]
                return

    def _admit(self) -> None:
        """A slot has freed: the longest-waiting edge (or nudge) takes it."""
        edge_idx = self._slot_waiters.pop(0)
        if edge_idx < 0:
            self.inbox.append((edge_idx, _NUDGE))
            return
        hands = self._hands
        self.inbox.append((edge_idx, hands[edge_idx]))
        hands[edge_idx] = None
        self._pull(edge_idx)

    # -- processes -------------------------------------------------------------------------
    def _tuple_hooks(self):
        """What processing a tuple calls per tuple, resolved once by each
        loop that drives it: the scheme's processing tax (None when it is
        the no-op) and the stage-sample appender."""
        return (
            self.scheme.active_hook("processing_overhead"),
            self.metrics.stage_samples.append,
        )

    def _run_chain(self, edge_idx: int, tup: DataTuple, overhead):
        """Dedupe ``tup`` and run the operator chain over it.

        ``(cost, emissions)``: the simulated seconds it takes, scheme tax
        included, and what the last operator emitted — or None for a
        duplicate.  The first half of processing a tuple; the caller
        waits out the cost, calls :meth:`_account`, then emits."""
        if tup.seq:
            in_seq = self._in_seq
            if tup.seq <= in_seq.get(edge_idx, 0):
                return None  # duplicate after recovery: already in restored state
            in_seq[edge_idx] = tup.seq
        dst_ports = self._dst_ports
        port = dst_ports[edge_idx] if edge_idx < len(dst_ports) else 0
        ops = self.operators
        if len(ops) == 1:
            # Single-operator chain (the paper's evaluation shape): no
            # intermediate fan-out lists to build.  Float arithmetic is
            # identical to the generic loop (0.0 + x == x for costs >= 0).
            op = ops[0]
            cost = op.processing_cost(tup)
            emissions = op.on_tuple(port, tup)
        else:
            cost = 0.0
            emissions = []
            current: list[tuple[int, DataTuple]] = [(port, tup)]
            for depth, op in enumerate(ops):
                nxt: list[tuple[int, DataTuple]] = []
                for p, t in current:
                    cost += op.processing_cost(t)
                    outs = op.on_tuple(p, t)
                    if depth == len(ops) - 1:
                        emissions.extend(outs)
                    else:
                        nxt.extend(
                            (o.port, DataTuple(o.payload, o.size, o.key, t.created_at, 0, t.source))
                            for o in outs
                        )
                current = nxt
                if depth == len(ops) - 1:
                    break
        if overhead is not None:
            cost *= 1.0 + overhead(self)
        return cost, emissions

    def _account(self, tup: DataTuple, cost: float, record) -> None:
        """Book one processed tuple, once its cost has elapsed."""
        self.busy_time += cost
        self.busy_total += cost
        self.tuples_processed += 1
        record((self.hau_id, tup.created_at, self.env._now))

    def _process_tuple(self, edge_idx: int, tup: DataTuple, overhead, record):
        """Process one tuple and emit the results.  Generator.

        The main loop drives the same two helpers inline; this is for the
        backlog replay and :meth:`release_holdback`.  ``overhead`` and
        ``record`` come from :meth:`_tuple_hooks`."""
        if (run := self._run_chain(edge_idx, tup, overhead)) is None:
            return
        cost, emissions = run
        if cost > 0:
            yield self.env.timeout(cost)
        self._account(tup, cost, record)
        emit = self.emit
        for emit_spec in emissions:
            if (work := emit(emit_spec, tup.created_at, tup.source)) is not None:
                yield from work

    def _main_loop(self):
        """The loop of a HAU with in-edges; runs only as ``self._proc``
        (:meth:`start` spawns it), the process :meth:`enqueue` unparks."""
        try:
            # Post-recovery: first re-send saved in-flight outputs, then
            # re-process the saved pre-token backlog.
            yield from self._resend_replay_out()
            backlog, self._replay_backlog = self._replay_backlog, ()
            if backlog and self._trace.enabled:
                self._trace.emit(
                    "replay.backlog",
                    t=self.env.now,
                    subject=self.hau_id,
                    count=len(backlog),
                )
            overhead, record = self._tuple_hooks()
            for edge_idx, tup in backlog:
                yield from self._process_tuple(edge_idx, tup, overhead, record)
            # Steady-state loop: collections are hoisted, and the
            # overwhelmingly-common case (a data tuple on an unblocked
            # edge) is dispatched first and processed inline — the two
            # helpers of _process_tuple, without a generator per tuple.
            # DataTuple, Token and _Nudge have no subclasses, so
            # exact-class checks are equivalent to the original
            # isinstance/identity dispatch.  The scheme's hooks are
            # locals, not slots: a slot is paid by every HAU, a local only
            # by a running loop — but for the whole run, by a parked one.
            maybe_checkpoint = self.scheme.active_hook("maybe_checkpoint")
            handle_token = self.scheme.handle_token
            inbox = self.inbox
            env = self.env
            parked = env.parked
            me = self._proc  # None once torn down: the interrupt is on its way
            assert me is not None or self.torn_down, "_main_loop runs only as self._proc"
            blocked = self.blocked_edges
            holdback = self.holdback
            while True:
                if maybe_checkpoint is not None and (work := maybe_checkpoint(self)) is not None:
                    yield from work
                if not self.intake_open:
                    yield self.intake()
                if not inbox:
                    # Idle: park until enqueue() has put something there,
                    # holding nothing of the last item meanwhile.
                    item = run = emissions = emit_spec = work = None
                    self._parked = me
                    yield parked
                edge_idx, item = inbox.pop(0)
                if self._slot_waiters:
                    self._admit()
                if item.__class__ is DataTuple:
                    if edge_idx in blocked:
                        holdback[edge_idx].append(item)
                    elif (run := self._run_chain(edge_idx, item, overhead)) is not None:
                        cost, emissions = run
                        if cost > 0:
                            yield env.timeout(cost)
                        self._account(item, cost, record)
                        for emit_spec in emissions:
                            if (work := self.emit(emit_spec, item.created_at, item.source)) is not None:
                                yield from work
                elif item is _NUDGE:
                    continue  # safe-point wake-up: hook runs at loop top
                else:
                    yield from handle_token(self, edge_idx, item)
        except Interrupt:
            self._parked = None
            return

    def _source_loop(self):
        """The loop of a source HAU; runs only as ``self._proc`` (:meth:`start`
        spawns it), the process :meth:`request_safepoint` unparks while it
        waits between tuples and once its generator is exhausted."""
        op = self.source_operator
        try:
            yield from self._resend_replay_out()
            # Post-recovery: replay preserved tuples at full speed ("it can
            # process the replayed tuples faster than usual to catch up",
            # §III).  Replayed tuples keep their original creation time and
            # are already preserved, so the preservation hook is skipped.
            replay, self._replay_source = self._replay_source, ()
            if replay and self._trace.enabled:
                self._trace.emit(
                    "replay.source",
                    t=self.env.now,
                    subject=self.hau_id,
                    count=len(replay),
                )
            for tup in replay:
                # A scheduler turn per tuple, intake open or not: restarted
                # sources interleave (see resend).
                yield self.intake()
                op.emitted_count += 1
                replayed = Emit(payload=tup.payload, size=tup.size, port=0, key=tup.key)
                if (work := self.emit(replayed, tup.created_at, self.hau_id)) is not None:
                    yield from work
            # Normal generation, resuming past the already-emitted prefix
            # (the generator is deterministic; see Operator docstring).
            # Tuples are stamped with ``sched``, the nominal capture instant
            # (the sum of the delays), so time blocked behind backpressure
            # counts into end-to-end latency.  Each tuple still waits its
            # full ``delay``: a blocked source never catches up.
            gen = op.generate()
            skip = op.emitted_count
            produced = 0
            sched = 0.0
            env = self.env
            timeout = env.timeout
            parked = env.parked
            me = self._proc  # None once torn down: the interrupt is on its way
            maybe_checkpoint = self.scheme.active_hook("maybe_checkpoint")
            on_source_emit = self.scheme.active_hook("on_source_emit")
            hau_id = self.hau_id
            do_emit = self.emit
            for delay, emit_spec in gen:
                sched += delay
                if produced < skip:
                    produced += 1
                    continue
                # The inter-arrival wait is one park with a deadline, which
                # request_safepoint() cuts short: the safe-point runs at the
                # command's instant, then the rest of the delay is waited out.
                remaining = delay
                while True:
                    if maybe_checkpoint is not None and (work := maybe_checkpoint(self)) is not None:
                        yield from work
                    if remaining <= 0:
                        break
                    deadline = env._now + remaining
                    self._parked = me
                    yield timeout(remaining, parked)
                    self._parked = None
                    remaining = deadline - env._now  # 0.0 when the wait ran out
                # a source sends on port 0 whatever port its Emit names
                if emit_spec.port:
                    emit_spec = Emit(emit_spec.payload, emit_spec.size, 0, emit_spec.key)
                now = env.now
                created_at = sched if sched < now else now
                if not self.intake_open:
                    yield self.intake()
                if on_source_emit is not None:
                    tup = DataTuple(
                        payload=emit_spec.payload,
                        size=emit_spec.size,
                        key=emit_spec.key,
                        created_at=created_at,
                        seq=op.emitted_count + 1,
                        source=hau_id,
                    )
                    if (work := on_source_emit(self, tup)) is not None:
                        yield from work
                op.emitted_count += 1
                produced += 1
                if (work := do_emit(emit_spec, created_at, hau_id)) is not None:
                    yield from work
            # Generator exhausted (finite workload): park, as an idle main
            # loop does, between safe-points.  A scheme with work for this
            # source (a checkpoint command, a periodic checkpoint, a queued
            # replay) wakes it through request_safepoint(); with none it
            # stays parked and costs no event.
            while True:
                if maybe_checkpoint is not None and (work := maybe_checkpoint(self)) is not None:
                    yield from work
                self._parked = me
                yield parked
        except Interrupt:
            self._parked = None
            return

    def kill_local_processes(self) -> None:
        """Stop this HAU's process without failing the node (rollback);
        the torn-down HAU keeps no reference to it."""
        self.torn_down = True
        proc, self._proc = self._proc, None
        self._parked = None
        if proc is not None:
            proc.interrupt("rollback")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HAURuntime {self.hau_id} on {self.node.node_id}>"
