"""Reliable, in-order channels between nodes (the paper's TCP assumption).

A :class:`Channel` is a unidirectional stream of :class:`Message`s.  While
both endpoints are alive, delivery is FIFO with no loss or duplication
(matching the paper: "Network packets are delivered in-order and will not
be lost silently").  A node failure closes the channel: pending sends
fail, and the peer observes the break (this is how downstream neighbours
detect upstream failure, and how "a node disconnected from storage
notifies its upstream neighbour").

Transmission cost = per-message latency + size/bandwidth, serialised on
the sender's NIC egress pipe so concurrent streams from one node contend.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.cluster.node import Node
from repro.simulation.core import Environment, Event, Interrupt
from repro.simulation.resources import Store

DEFAULT_LATENCY = 0.0005  # 500 us intra-DC one-way


class ChannelClosedError(Exception):
    """Send or receive on a channel whose endpoint has failed."""


_MSG_SEQ = 0


class Message:
    """A sized payload travelling over a channel.

    A plain slots class rather than a dataclass: one is built per wire
    message, and the generated ``__init__`` of a frozen dataclass (four
    ``object.__setattr__`` calls) is measurable on the tuple hot path.
    Treat instances as immutable.
    """

    __slots__ = ("payload", "size", "sent_at", "seq")

    def __init__(self, payload: Any, size: int, sent_at: float = 0.0, seq: int = 0):
        self.payload = payload
        self.size = size  # nominal bytes on the wire
        self.sent_at = sent_at
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Message(size={self.size}, sent_at={self.sent_at}, seq={self.seq})"


class Channel:
    """Unidirectional reliable FIFO pipe ``src -> dst``."""

    def __init__(
        self,
        env: Environment,
        src: Node,
        dst: Node,
        latency: float = DEFAULT_LATENCY,
        name: str = "",
        capacity: float = float("inf"),
        batch_quantum: float = 0.0,
    ):
        self.env = env
        self.src = src
        self.dst = dst
        self.latency = latency
        self.name = name or f"{src.node_id}->{dst.node_id}"
        # Bounded buffers give TCP-like backpressure: a stalled receiver
        # fills the inbox (socket buffer), the pump blocks, the outbox
        # (send buffer) fills, and send() events stop firing.
        self._inbox: Store = Store(env, capacity=capacity)
        self._outbox: Store = Store(env, capacity=capacity)
        self.closed = False
        self.messages_delivered = 0
        self.bytes_delivered = 0
        self.batches_flushed = 0
        # Tuple coalescing (Nagle-style): offer() gathers same-edge tuples
        # for up to batch_quantum simulated seconds, then one envelope
        # message carries them all (cost: one latency + summed
        # serialisation).  0.0 disables batching entirely — offer() is
        # never called and send() only pays one truthiness check.
        self.batch_quantum = batch_quantum
        self._batch: list = []
        self._batch_epoch = 0
        self._on_break: tuple[Callable[["Channel"], None], ...] = ()
        self._pump = src.spawn(self._run(), label=f"chan:{self.name}")
        endpoint_failed = self._endpoint_failed  # one bound method for both ends
        src.on_fail(endpoint_failed)
        dst.on_fail(endpoint_failed)

    # -- public API -----------------------------------------------------------
    def send(self, payload: Any, size: int) -> Event:
        """Queue a message; returns the put event (fires on acceptance).

        If tuples are pending in the coalescing buffer they are flushed
        first, so this message (e.g. a cascading checkpoint token) never
        overtakes data offered before it.
        """
        global _MSG_SEQ
        if self.closed:
            raise ChannelClosedError(self.name)
        if self._batch:
            self.flush()
        _MSG_SEQ += 1
        msg = Message(payload=payload, size=int(size), sent_at=self.env.now, seq=_MSG_SEQ)
        return self._outbox.put(msg)

    def offer(self, payload: Any, size: int) -> None:
        """Add a tuple to the coalescing buffer (batched mode only).

        Synchronous — no event, no outbox interaction.  The first offer
        of a batch arms a flush ``batch_quantum`` seconds out; everything
        offered meanwhile rides in the same envelope.  Acceptance is
        deferred to the flush, so batched senders see backpressure at
        quantum granularity rather than per tuple.
        """
        if self.closed:
            raise ChannelClosedError(self.name)
        batch = self._batch
        batch.append((payload, int(size)))
        if len(batch) == 1:
            epoch = self._batch_epoch
            timer = self.env.timeout(self.batch_quantum)
            timer.add_callback(
                lambda _ev: self.flush() if self._batch_epoch == epoch else None
            )

    def flush(self) -> None:
        """Wrap the pending batch into one envelope message, now."""
        # Imported here, not at module top: repro.dsps imports this module
        # (hau -> channel), so the reverse edge must stay lazy.
        from repro.dsps.tuples import BatchEnvelope

        self._batch_epoch += 1
        batch = self._batch
        if not batch or self.closed:
            self._batch = []
            return
        self._batch = []
        global _MSG_SEQ
        _MSG_SEQ += 1
        envelope = BatchEnvelope(
            [p for (p, _s) in batch], size=sum(s for (_p, s) in batch)
        )
        msg = Message(
            payload=envelope, size=envelope.size, sent_at=self.env.now, seq=_MSG_SEQ
        )
        self.batches_flushed += 1
        if self.env.telemetry.enabled:
            self.env.telemetry.counter("ms_batch_envelopes_total").inc()
            self.env.telemetry.counter("ms_batch_tuples_total").inc(len(batch))
        self._outbox.put(msg)

    def pending_batch_tuples(self) -> list[Any]:
        """Payloads offered but not yet flushed (checkpoint inspection)."""
        return [p for (p, _s) in self._batch]

    def send_front(self, payload: Any, size: int) -> None:
        """Send ``payload`` ahead of everything queued (token insertion).

        Meteor Shower places 1-hop tokens "at the head of the queue" of
        the output buffers so they are not delayed behind backpressured
        data (§III-B).  Bypasses the outbox capacity (tokens are tiny).
        """
        global _MSG_SEQ
        if self.closed:
            raise ChannelClosedError(self.name)
        _MSG_SEQ += 1
        msg = Message(payload=payload, size=int(size), sent_at=self.env.now, seq=_MSG_SEQ)
        self._outbox.put_front(msg)

    def recv(self) -> Event:
        """Event that fires with the next delivered :class:`Message`.

        After a close, any messages already delivered drain first; then the
        receiver sees :class:`ChannelClosedError`.
        """
        if self.closed and not len(self._inbox):
            ev = Event(self.env, name=f"recv-closed:{self.name}")
            ev.fail(ChannelClosedError(self.name))
            return ev
        return self._inbox.get()

    @property
    def in_flight(self) -> int:
        return len(self._outbox)

    @property
    def pending(self) -> int:
        """Delivered but not yet consumed messages."""
        return len(self._inbox)

    def on_break(self, callback: Callable[["Channel"], None]) -> None:
        self._on_break += (callback,)

    def _endpoint_failed(self, _node: Node) -> None:
        self.close()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        # Drop unflushed offers: the endpoint failed, and preservation
        # hooks for these tuples already ran at emit time.
        self._batch = []
        self._batch_epoch += 1
        if self._pump.is_alive:
            self._pump.interrupt("channel-closed")
        # Wake blocked receivers with an error.
        while self._inbox._getters:
            getter = self._inbox._getters.pop(0)
            getter.fail(ChannelClosedError(self.name))
        observers, self._on_break = self._on_break, ()
        for cb in observers:
            cb(self)

    # -- internals --------------------------------------------------------------
    def _run(self):
        env = self.env
        outbox_get = self._outbox.get
        inbox_put = self._inbox.put
        nic = self.src.nic_out
        nic_res = nic._res
        dst = self.dst
        try:
            while True:
                msg = yield outbox_get()
                # serialise on sender NIC, then propagate.  The common
                # single-chunk case of BandwidthPipe.transfer is inlined
                # (identical request/timeout events and float arithmetic);
                # multi-chunk bulk falls back to the generic generator.
                size = msg.size
                if 0 < size <= nic.chunk_bytes:
                    req = nic_res.request()
                    try:
                        yield req
                        duration = size / nic.bandwidth + nic.per_op_latency
                        if duration > 0:
                            yield env.timeout(duration)
                    finally:
                        req.cancel()
                    nic.bytes_moved += size
                    nic.ops += 1
                else:
                    yield from nic.transfer(size)
                # self.latency is read per message, not hoisted: the
                # failure injector mutates it live to model partitions.
                yield env.timeout(self.latency)
                if self.closed or not dst.alive:
                    return
                yield inbox_put(msg)
                self.messages_delivered += 1
                self.bytes_delivered += size
        except Interrupt:
            return
