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

Scheme integration is through :class:`SchemeHooks`; the runtime itself is
scheme-agnostic.
"""

from __future__ import annotations

import zlib
from collections import deque
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.cluster.channel import Channel, ChannelClosedError
from repro.cluster.node import Node
from repro.dsps.graph import EdgeSpec, HAUSpec
from repro.dsps.operator import Emit, Operator, OperatorContext, SourceOperator
from repro.dsps.tuples import DataTuple, Token, is_token
from repro.simulation.core import Environment, Event, Interrupt
from repro.simulation.resources import Gate
from repro.simulation.rng import RngRegistry

DEFAULT_INBOX_CAPACITY = 128


def stable_route_hash(key: Any) -> int:
    """PYTHONHASHSEED-independent routing hash.

    ``hash(str)`` is salted per process, so using it to pick an out-edge
    would route the same key differently between runs and break the
    same-seed digest contract.  Numeric hashes are unsalted in CPython,
    so ints/floats (and tuples of them — CPython's tuple hash combines
    the already-stable element hashes, and numeric hashes are fixpoints
    of re-hashing) keep their historical routing and the pinned digests
    are unchanged; salted types reroute through crc32 of a stable
    encoding.
    """
    if isinstance(key, (int, float)):
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


IDLE_SOURCE_POLL = 0.05  # safe-point poll for sources with no pending data
SOURCE_DELAY_CHUNK = 0.25  # max wait between source safe-points


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


class SchemeHooks:
    """Hook surface a checkpoint scheme implements (all optional).

    Generator-valued hooks are driven with ``yield from`` inside the HAU
    process, so they can spend simulated time (preservation writes).
    """

    def on_hau_started(self, hau: "HAURuntime") -> None:
        """HAU process came up (fresh start or post-recovery restart)."""

    def on_source_emit(self, hau: "HAURuntime", tup: DataTuple):
        """Before a source sends ``tup`` (source preservation). Generator."""
        return
        yield  # pragma: no cover

    def on_emit(self, hau: "HAURuntime", edge: EdgeSpec, tup: DataTuple):
        """After ``tup`` is queued on ``edge`` (input preservation). Generator."""
        return
        yield  # pragma: no cover

    def on_token_arrival(self, hau: "HAURuntime", edge_idx: int, token: Token) -> None:
        """Intake-level notification: a token reached the head of its edge
        (it enters the inbox now, or as soon as a slot frees)."""

    def handle_token(self, hau: "HAURuntime", edge_idx: int, token: Token):
        """Main-loop token processing. Generator."""
        return
        yield  # pragma: no cover

    def processing_overhead(self, hau: "HAURuntime") -> float:
        """Multiplicative CPU tax (e.g. copy-on-write during async ckpt)."""
        return 0.0

    def maybe_checkpoint(self, hau: "HAURuntime"):
        """Safe-point hook, called at every tuple boundary of the main and
        source loops.  Schemes take snapshots here so that no tuple is ever
        half-processed (state mutated, emissions unsent) inside a
        checkpoint. Generator."""
        return
        yield  # pragma: no cover

    def on_channel_broken(self, hau: "HAURuntime", edge_idx: int) -> None:
        """An inbound channel broke (upstream neighbour failure signal)."""

    def on_control(self, hau: "HAURuntime", message: Any):
        """A control-plane message arrived from the controller. Generator."""
        return
        yield  # pragma: no cover


class HAURuntime:
    """One HAU running on one node."""

    def __init__(
        self,
        env: Environment,
        spec: HAUSpec,
        node: Node,
        in_edges: list[EdgeSpec],
        out_edges: list[EdgeSpec],
        scheme: SchemeHooks,
        rngs: RngRegistry,
        metrics=None,
        inbox_capacity: int = DEFAULT_INBOX_CAPACITY,
        restored: dict | None = None,
    ):
        self.env = env
        self.spec = spec
        self.hau_id = spec.hau_id
        self.node = node
        self.scheme = scheme
        self.metrics = metrics
        self._trace = env.trace  # cached: one attribute check per emission site
        # Telemetry handles are resolved once here (the registry is
        # get-or-create, so caching is purely a hot-loop optimisation);
        # with telemetry off these are the shared no-op metric.
        self._telem = env.telemetry
        self._m_tuples = self._telem.counter("ms_hau_tuples_total", hau=spec.hau_id)
        self._m_busy = self._telem.counter("ms_hau_busy_seconds_total", hau=spec.hau_id)
        self._m_latency = self._telem.histogram(
            "ms_hau_tuple_latency_seconds", hau=spec.hau_id
        )
        self._m_tokens_sent = self._telem.counter(
            "ms_hau_tokens_sent_total", hau=spec.hau_id
        )
        self._m_tokens_recv = self._telem.counter(
            "ms_hau_tokens_received_total", hau=spec.hau_id
        )

        self.operators: list[Operator] = spec.make_operators()
        if not self.operators:
            raise ValueError(f"HAU {self.hau_id} has no operators")
        self.ctx = OperatorContext(hau_id=self.hau_id, now=lambda: env.now, rngs=rngs)
        for op in self.operators:
            op.setup(self.ctx)

        self.in_edges = list(in_edges)
        self.out_edges = list(out_edges)
        self.in_channels: list[Channel | None] = [None] * len(self.in_edges)
        self.out_channels: dict[str, Channel] = {}  # edge_id -> channel
        self._out_seq: dict[str, int] = {e.edge_id: 0 for e in self.out_edges}
        # Hot-path caches.  Out-edges and in-edge ports are fixed for the
        # runtime's lifetime (rewires swap channels, not edges), so the
        # per-port routing groups and per-edge input ports are computed
        # once.  A scheme that leaves the on_emit hook at the no-op base
        # implementation skips the generator drive entirely.
        self._route_cache: dict[int, list[EdgeSpec]] = {}
        self._dst_ports: list[int] = [e.dst_port for e in self.in_edges]
        on_emit = scheme.on_emit
        self._hook_on_emit = (
            None if getattr(on_emit, "__func__", None) is SchemeHooks.on_emit else on_emit
        )

        # Bounded intake queue of (edge_idx, item).  An edge whose next
        # item finds it full (or finds others queued) keeps that item in
        # its hand and joins _slot_waiters — as do nudges, edge -1 — and
        # each pop admits the longest waiter.  Both are allocated by the
        # first item that has to wait (the shared-empty-tuple idiom).
        self.inbox: deque[tuple[int, Any]] = deque()
        self.inbox_capacity = inbox_capacity
        self._hands: list[Any] | None = None  # per in-edge; None = empty
        self._slot_waiters: list[int] | tuple[()] = ()
        self._wake: Event | None = None  # set while the main loop is idle
        self.intake_gate = Gate(env, opened=True)
        self.blocked_edges: set[int] = set()
        self.holdback: dict[int, deque] = {}
        # last processed sequence per in-edge: duplicate suppression after
        # recovery (a replayed/resent tuple with seq <= this is dropped)
        self._in_seq: dict[int, int] = {i: 0 for i in range(len(self.in_edges))}
        # restart support: items to re-process / re-emit before normal work
        # (only ever rebound, never appended to, so empty is the shared ())
        self._replay_backlog: Sequence[tuple[int, DataTuple]] = ()
        self._replay_out: Sequence[tuple[str, DataTuple]] = ()
        self._replay_source: Sequence[DataTuple] = ()

        self.tuples_processed = 0
        self.busy_time = 0.0
        self._procs = []
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
            self._procs.append(self.node.spawn(self._source_loop(), label=f"{self.hau_id}.src"))
        else:
            self._procs.append(self.node.spawn(self._main_loop(), label=f"{self.hau_id}.main"))
        if self._trace.enabled:
            self._trace.emit(
                "hau.start", t=self.env.now, subject=self.hau_id, node=self.node.node_id
            )
        self.scheme.on_hau_started(self)

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
        self.intake_gate.close()

    def resume_intake(self) -> None:
        self.intake_gate.open()

    def block_edge(self, edge_idx: int) -> None:
        self.blocked_edges.add(edge_idx)
        self.holdback.setdefault(edge_idx, deque())

    def unblock_all_edges(self) -> list[tuple[int, DataTuple]]:
        """Clear blocks; returns held-back items in arrival order per edge."""
        drained: list[tuple[int, DataTuple]] = []
        for edge_idx in sorted(self.holdback):
            q = self.holdback[edge_idx]
            while q:
                drained.append((edge_idx, q.popleft()))
        self.blocked_edges.clear()
        self.holdback.clear()
        return drained

    # -- emission -------------------------------------------------------------------------
    def route_edges(self, emit: Emit) -> list[EdgeSpec]:
        """Which out-edges receive this emission (port match + routing)."""
        port = emit.port
        group = self._route_cache.get(port)
        if group is None:
            group = [e for e in self.out_edges if e.src_port == port]
            self._route_cache[port] = group
        if len(group) <= 1 or group[0].routing != "hash":
            return group  # broadcast (or empty / single edge)
        idx = stable_route_hash(emit.key) % len(group) if emit.key is not None else 0
        return [group[idx]]

    def emit(self, emit_spec: Emit, created_at: float, source: str):
        """Process generator: route, hook, and send one emission.

        The scheme hook (preservation) runs before the send and even when
        the channel is currently broken: a tuple emitted while the
        downstream neighbour is dead must still be retained so it can be
        replayed once the neighbour is restarted.  Only a send into a
        full outbox waits.
        """
        out_seq = self._out_seq
        out_channels = self.out_channels
        hook = self._hook_on_emit
        for edge in self.route_edges(emit_spec):
            eid = edge.edge_id
            out_seq[eid] = seq = out_seq[eid] + 1
            tup = DataTuple(
                payload=emit_spec.payload,
                size=emit_spec.size,
                key=emit_spec.key,
                created_at=created_at,
                seq=seq,
                source=source,
            )
            if hook is not None:
                yield from hook(self, edge, tup)
            chan = out_channels.get(eid)
            if chan is None or chan.closed:
                continue
            accepted = chan.send(tup, tup.size)
            if not accepted._flushed:
                yield from _until_accepted(accepted)

    def emit_token(self, token: Token):
        """Process generator: send ``token`` down every out-edge, in order."""
        for edge in self.out_edges:
            chan = self.out_channels.get(edge.edge_id)
            if chan is None or chan.closed:
                continue
            if self._trace.enabled:
                self._trace.emit(
                    "token.send",
                    t=self.env.now,
                    subject=self.hau_id,
                    round=token.round_id,
                    edge=edge.edge_id,
                    token_kind=token.kind,
                    front=False,
                )
            if self._telem.enabled:
                self._m_tokens_sent.inc()
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
            if self._trace.enabled:
                self._trace.emit(
                    "token.send",
                    t=self.env.now,
                    subject=self.hau_id,
                    round=token.round_id,
                    edge=edge.edge_id,
                    token_kind=token.kind,
                    front=True,
                )
            if self._telem.enabled:
                self._m_tokens_sent.inc()
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
            for msg in chan._outbox:
                if isinstance(msg.payload, DataTuple):
                    out.append((edge.edge_id, msg.payload))
        return out

    def set_replay_source(self, tuples: list[DataTuple]) -> None:
        """Queue preserved tuples for full-speed replay after recovery."""
        self._replay_source = list(tuples)

    def request_safepoint(self) -> None:
        """Wake the main loop if it is idle so the scheme's safe-point hook
        runs promptly (periodic baseline checkpoints, queued replays).
        Sources poll their own safe-points; no nudge needed."""
        if not self.is_source and not self.enqueue(-1, _NUDGE):
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

    # -- intake ----------------------------------------------------------------------------
    def enqueue(self, edge_idx: int, item: Any) -> bool:
        """Put ``item`` in the inbox, waking the main loop if it is idle.

        False — and nothing done — if the inbox is full or others are
        already queued for a slot; the caller then joins that queue."""
        if self._slot_waiters or len(self.inbox) >= self.inbox_capacity:
            return False
        self.inbox.append((edge_idx, item))
        wake = self._wake
        if wake is not None:
            # Dropped before it fires, so nothing but the schedule holds
            # the event and the kernel can recycle it.
            self._wake = None
            wake.succeed()
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
        while (msg := chan.take()) is not None:
            item = msg.payload
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
                if self._telem.enabled:
                    self._m_tokens_recv.inc()
                self.scheme.on_token_arrival(self, edge_idx, item)
            if not self.enqueue(edge_idx, item):
                if hands is None:
                    self._hands = hands = [None] * len(self.in_edges)
                hands[edge_idx] = item
                self._slot_waiters = [*self._slot_waiters, edge_idx]
                return
        if chan.closed:  # and drained
            self.scheme.on_channel_broken(self, edge_idx)

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
    def _process_tuple(self, edge_idx: int, tup: DataTuple):
        """Run the operator chain over one tuple; emit the results."""
        if tup.seq:
            in_seq = self._in_seq
            if tup.seq <= in_seq.get(edge_idx, 0):
                return  # duplicate after recovery: already in restored state
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
        cost *= 1.0 + self.scheme.processing_overhead(self)
        if cost > 0:
            yield self.env.timeout(cost)
        self.busy_time += cost
        self.tuples_processed += 1
        if self._telem.enabled:
            self._m_tuples.inc()
            self._m_busy.inc(cost)
            self._m_latency.observe(self.env.now - tup.created_at)
        if self.metrics is not None:
            self.metrics.record_stage(self.hau_id, tup.created_at, self.env.now)
        for emit_spec in emissions:
            yield from self.emit(emit_spec, created_at=tup.created_at, source=tup.source)

    def _main_loop(self):
        try:
            # Post-recovery: first re-send saved in-flight outputs, then
            # re-process the saved pre-token backlog.
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
            backlog, self._replay_backlog = self._replay_backlog, ()
            if backlog and self._trace.enabled:
                self._trace.emit(
                    "replay.backlog",
                    t=self.env.now,
                    subject=self.hau_id,
                    count=len(backlog),
                )
            for edge_idx, tup in backlog:
                yield from self._process_tuple(edge_idx, tup)
            # Steady-state loop: bound methods and collections are hoisted,
            # and the overwhelmingly-common case (a data tuple on an
            # unblocked edge) is dispatched first.  DataTuple, Token and
            # _Nudge have no subclasses, so exact-class checks are
            # equivalent to the original isinstance/identity dispatch.
            maybe_checkpoint = self.scheme.maybe_checkpoint
            handle_token = self.scheme.handle_token
            gate = self.intake_gate
            inbox = self.inbox
            new_event = self.env.event
            blocked = self.blocked_edges
            holdback = self.holdback
            process_tuple = self._process_tuple
            while True:
                yield from maybe_checkpoint(self)
                if not gate._opened:
                    yield gate.wait()
                if not inbox:
                    # Idle: park until enqueue() has put something there.
                    self._wake = new_event()
                    yield self._wake
                edge_idx, item = inbox.popleft()
                if self._slot_waiters:
                    self._admit()
                if item.__class__ is DataTuple:
                    if edge_idx in blocked:
                        holdback[edge_idx].append(item)
                    else:
                        yield from process_tuple(edge_idx, item)
                elif item is _NUDGE:
                    continue  # safe-point wake-up: hook runs at loop top
                else:
                    yield from handle_token(self, edge_idx, item)
        except Interrupt:
            return

    def _source_loop(self):
        op = self.source_operator
        try:
            # Post-recovery: first re-send the saved in-flight outputs (the
            # tuples "between the incoming tokens and the output tokens"
            # that the checkpoint carried), then replay preserved tuples.
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
                # A scheduler turn per tuple, gate open or not: restarted
                # sources interleave (see resend).
                yield self.intake_gate.wait()
                op.emitted_count += 1
                yield from self.emit(
                    Emit(payload=tup.payload, size=tup.size, port=0, key=tup.key),
                    created_at=tup.created_at,
                    source=self.hau_id,
                )
            # Normal generation, resuming past the already-emitted prefix
            # (the generator is deterministic; see Operator docstring).
            # ``sched`` is the nominal sensor-capture instant: tuples are
            # stamped with it (not the emission instant), so time spent
            # blocked behind backpressure counts into end-to-end latency —
            # the real sensor kept capturing while the pipeline stalled.
            gen = op.generate()
            skip = op.emitted_count
            produced = 0
            sched = 0.0
            env = self.env
            timeout = env.timeout
            maybe_checkpoint = self.scheme.maybe_checkpoint
            on_source_emit = self.scheme.on_source_emit
            gate = self.intake_gate
            hau_id = self.hau_id
            do_emit = self.emit
            for delay, emit_spec in gen:
                sched += delay
                if produced < skip:
                    produced += 1
                    continue
                # Chunked inter-arrival wait so a slow source still reaches
                # checkpoint safe-points promptly.
                remaining = delay
                while remaining > 0:
                    chunk = min(remaining, SOURCE_DELAY_CHUNK)
                    yield timeout(chunk)
                    remaining -= chunk
                    if remaining > 0:
                        yield from maybe_checkpoint(self)
                yield from maybe_checkpoint(self)
                now = env.now
                tup = DataTuple(
                    payload=emit_spec.payload,
                    size=emit_spec.size,
                    key=emit_spec.key,
                    created_at=sched if sched < now else now,
                    seq=op.emitted_count + 1,
                    source=hau_id,
                )
                if not gate._opened:
                    yield gate.wait()
                yield from on_source_emit(self, tup)
                op.emitted_count += 1
                produced += 1
                yield from do_emit(
                    Emit(payload=tup.payload, size=tup.size, port=0, key=tup.key),
                    created_at=tup.created_at,
                    source=hau_id,
                )
            # Generator exhausted (finite workload): stay alive at safe
            # points so checkpoint rounds can still complete.
            while True:
                yield from maybe_checkpoint(self)
                yield timeout(IDLE_SOURCE_POLL)
        except Interrupt:
            return

    def kill_local_processes(self) -> None:
        """Stop this HAU's processes without failing the node (rollback)."""
        self.torn_down = True
        procs, self._procs = self._procs, []
        for p in procs:
            p.interrupt("rollback")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HAURuntime {self.hau_id} on {self.node.node_id}>"
