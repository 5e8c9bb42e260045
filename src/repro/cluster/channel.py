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

A message moves through three bounded stages — outbox (send buffer), the
wire (one message: the link carries the next only once this one is in
the inbox, i.e. one message per serialisation + latency), inbox (socket
buffer) — and no process moves it.  Every step happens inside the call
that makes it possible (``send`` on an idle link transmits at once, the
consumer taking a message lets the one on the wire in, which puts the
next on the wire, which admits a blocked sender), and the one step that
takes simulated time, the wire, is a single event armed at the instant
the message lands (see :meth:`BandwidthPipe.book`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Any

from repro.cluster.node import Node
from repro.simulation.core import Environment, Event

DEFAULT_LATENCY = 0.0005  # 500 us intra-DC one-way


class ChannelClosedError(Exception):
    """Send or receive on a channel whose endpoint has failed."""


class Message:
    """A sized payload travelling over a channel.

    A plain slots class rather than a dataclass: one is built per wire
    message, and the generated ``__init__`` of a frozen dataclass is
    measurable on the tuple hot path.  Treat instances as immutable.
    """

    __slots__ = ("payload", "size")

    def __init__(self, payload: Any, size: int):
        self.payload = payload
        self.size = size  # nominal bytes on the wire

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Message(size={self.size})"


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
    ):
        src.check_alive()
        self.env = env
        self.src = src
        self.dst = dst
        self._latency = latency
        self.name = name or f"{src.node_id}->{dst.node_id}"
        # Bounded buffers give TCP-like backpressure: a stalled consumer
        # fills the inbox (socket buffer), the message on the wire cannot
        # land, the outbox (send buffer) fills, and send() hands back
        # events that stay pending.
        self.capacity = capacity
        self._outbox: deque[Message] = deque()
        self._inbox: deque[Message] = deque()
        self._wire: Message | None = None  # serialising, propagating or landed
        self._sent_at = 0.0  # when the wire message is through the NIC
        self._landed = False  # the wire message is waiting for an inbox slot
        # Armed at the instant the wire message lands; allocated (with its
        # callback list) by the first transmission, re-armed ever after.
        self._arrival: Event | None = None
        self._arrival_cbs: list[Callable[[Event], None]] | None = None
        self._nic_req: Event | None = None  # queued for a contended NIC
        # Waiters are rare and short: the shared empty tuple until the
        # first one, a list from then on (the Store idiom).
        self._senders: list[tuple[Event, Message]] | tuple[()] = ()
        self._getters: list[Event] | tuple[()] = ()
        self._consumer: Callable[[Any], None] | None = None
        self._consumer_tag: Any = None
        self.closed = False
        self.messages_delivered = 0
        self.bytes_delivered = 0
        self._on_break: tuple[Callable[["Channel"], None], ...] = ()
        endpoint_failed = self._endpoint_failed  # one bound method for both ends
        src.on_fail(endpoint_failed)
        dst.on_fail(endpoint_failed)

    @property
    def latency(self) -> float:
        """One-way propagation delay; the failure injector sets it live
        to model partitions.  A message takes the value in force when it
        starts to propagate, so one still serialising on the NIC when the
        value changes is re-timed (its stale arrival is ignored)."""
        return self._latency

    @latency.setter
    def latency(self, value: float) -> None:
        self._latency = value
        timed = self._wire is not None and self._nic_req is None  # has its NIC slot
        if timed and not self._arrival._flushed and self._sent_at >= self.env.now:
            self._arrival = None
            self._propagate(self._sent_at)

    # -- sending --------------------------------------------------------------
    def send(self, payload: Any, size: int) -> Event:
        """Queue a message; the event fires once it is accepted.

        With room (the usual case) it is accepted on return and the event
        is ``env.past``; with the outbox full the event stays pending
        until a slot frees, or fails with :class:`ChannelClosedError` if
        the channel closes first.
        """
        if self.closed:
            raise ChannelClosedError(self.name)
        msg = Message(payload, int(size))
        if self._wire is None:
            self._transmit(msg)  # idle link: nothing is queued either
        elif len(self._outbox) < self.capacity and not self._senders:
            self._outbox.append(msg)
        else:
            accepted = self.env.event()
            self._senders = [*self._senders, (accepted, msg)]
            return accepted
        return self.env.past

    def send_front(self, payload: Any, size: int) -> None:
        """Send ``payload`` ahead of everything queued (token insertion).

        Meteor Shower places 1-hop tokens "at the head of the queue" of
        the output buffers so they are not delayed behind backpressured
        data (§III-B).  Bypasses the outbox capacity (tokens are tiny).
        """
        if self.closed:
            raise ChannelClosedError(self.name)
        msg = Message(payload, int(size))
        if self._wire is None:
            self._transmit(msg)
        else:
            self._outbox.appendleft(msg)

    # -- receiving ------------------------------------------------------------
    def recv(self) -> Event:
        """Event that fires with the next delivered :class:`Message`.

        After a close, any messages already delivered drain first; then the
        receiver sees :class:`ChannelClosedError`.
        """
        ev = self.env.event()
        if self._inbox:
            ev.succeed(self.take())
        elif self.closed:
            ev.fail(ChannelClosedError(self.name))
        else:
            self._getters = [*self._getters, ev]
        return ev

    def take(self) -> Message | None:
        """The next delivered message, or ``None`` — ``recv`` without the
        wait, for a consumer that :meth:`bind` tells when to look."""
        inbox = self._inbox
        if not inbox:
            return None
        msg = inbox.popleft()
        if self._landed:
            self._deliver()
        return msg

    def bind(self, consumer: Callable[[Any], None], tag: Any) -> None:
        """Call ``consumer(tag)`` whenever a message is delivered, and once
        when the channel closes; the consumer empties the inbox with
        :meth:`take`.  Replaces ``recv`` for this channel."""
        self._consumer = consumer
        self._consumer_tag = tag
        if self._inbox or self.closed:
            consumer(tag)

    @property
    def in_flight(self) -> int:
        return len(self._outbox)

    @property
    def pending(self) -> int:
        """Delivered but not yet consumed messages."""
        return len(self._inbox)

    # -- failure --------------------------------------------------------------
    def on_break(self, callback: Callable[["Channel"], None]) -> None:
        self._on_break += (callback,)

    def _endpoint_failed(self, _node: Node) -> None:
        self.close()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        req, self._nic_req = self._nic_req, None
        if req is not None:
            req.cancel()
        # Wake everyone blocked on either end with an error.
        error = ChannelClosedError(self.name)
        senders, self._senders = self._senders, ()
        for accepted, _msg in senders:
            accepted.fail(error)
        getters, self._getters = self._getters, ()
        for getter in getters:
            getter.fail(error)
        # Last call, then let go: a torn-down consumer (a rolled-back HAU
        # and its operator state) must not live on through its channels.
        consumer, self._consumer = self._consumer, None
        if consumer is not None:
            consumer(self._consumer_tag)
        observers, self._on_break = self._on_break, ()
        for cb in observers:
            cb(self)

    # -- internals --------------------------------------------------------------
    def _transmit(self, msg: Message) -> None:
        """Put ``msg`` on the wire: serialise on the sender NIC, propagate."""
        self._wire = msg
        nic = self.src.nic_out
        if nic.idle:
            self._propagate(nic.book(msg.size))
        else:
            # A transfer holds (or waits for) the pipe: queue like one.
            self._nic_req = req = nic._res.request()
            req.add_callback(self._nic_granted)

    def _nic_granted(self, req: Event) -> None:
        if self.closed:
            return  # close() gave the grant back
        self._nic_req = None
        nic = self.src.nic_out
        sent_at = nic.book(self._wire.size)
        nic._res.release(req)
        self._propagate(sent_at)

    def _propagate(self, sent_at: float) -> None:
        # Latency (like nic.bandwidth) is read per message, not cached:
        # the failure injector mutates both live.
        self._sent_at = sent_at
        arrival = self._arrival
        if arrival is None:
            self._arrival = arrival = Event(self.env)
            self._arrival_cbs = self._arrival_cbs or [self._arrive]
        arrival.callbacks = self._arrival_cbs  # step() detached them
        self.env.schedule_at(arrival, sent_at + self._latency)

    def _arrive(self, event: Event) -> None:
        if event is not self._arrival or self.closed or not self.dst.alive:
            return
        if len(self._inbox) >= self.capacity:
            self._landed = True  # take() lets it in
            return
        self._deliver()
        if self._getters:
            self._getters.pop(0).succeed(self._inbox.popleft())
        elif self._consumer is not None:
            self._consumer(self._consumer_tag)

    def _deliver(self) -> None:
        """Wire -> inbox; the link then carries the outbox head, and the
        slot that frees admits the longest-blocked sender."""
        msg = self._wire
        self._wire = None
        self._landed = False
        self._inbox.append(msg)
        self.messages_delivered += 1
        self.bytes_delivered += msg.size
        outbox = self._outbox
        if outbox and not self.closed:
            self._transmit(outbox.popleft())
            if self._senders and len(outbox) < self.capacity:
                accepted, blocked = self._senders.pop(0)
                outbox.append(blocked)
                accepted.succeed()
