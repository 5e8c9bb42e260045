"""The pump-less channel against a small reference, and what it pins.

``Channel`` moves a message through outbox -> wire -> inbox inside the
calls that make each step possible, and computes the one instant that
takes simulated time.  ``RefLink`` below is the same pipe written the
obvious way — three bounded FIFOs and a busy-until clock per NIC — and
the model test drives both with one random script.  The rest pins the
numbers the refactor had to keep: back-pressure depth, the NIC lanes'
discipline against storage traffic, live latency/bandwidth changes, and
the close-while-blocked fix.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Channel, ChannelClosedError
from repro.cluster.node import BandwidthPipe, Node
from repro.simulation import Environment
from repro.simulation.core import Event

BW = 1_000_000.0
LATENCY = 0.0005


class RefLink:
    """Reference channel: three bounded FIFOs; ``nic`` is the shared
    ``{"busy": instant}`` clock of every link leaving the same node."""

    def __init__(self, env, nic, capacity):
        self.env, self.nic, self.cap = env, nic, capacity
        self.outbox, self.inbox, self.blocked, self.log = [], [], [], []
        self.wire, self.landed, self.closed = None, False, False

    def send(self, payload, size, front=False):
        if self.wire is None:
            self._transmit((payload, size))
        elif front:
            self.outbox.insert(0, (payload, size))
        elif len(self.outbox) < self.cap and not self.blocked:
            self.outbox.append((payload, size))
        else:
            self.blocked.append((payload, size))

    def _transmit(self, item):
        self.wire = item
        start = max(self.env.now, self.nic["busy"])
        self.nic["busy"] = end = start + (item[1] / BW + 0.0)
        self.nic["spans"].append((start, end))
        landing = Event(self.env)
        landing.add_callback(lambda _event: self.closed or self._land())
        self.env.schedule_at(landing, end + LATENCY)

    def _land(self):
        if len(self.inbox) >= self.cap:
            self.landed = True
            return
        self.landed = False
        self.inbox.append(self.wire[0])
        self.log.append((self.wire[0], self.env.now))
        self.wire = None
        if self.outbox and not self.closed:
            self._transmit(self.outbox.pop(0))
            if self.blocked and len(self.outbox) < self.cap:
                self.outbox.append(self.blocked.pop(0))

    def take(self):
        if not self.inbox:
            return None
        payload = self.inbox.pop(0)
        if self.landed:
            self._land()  # even after a close: it had arrived
        return payload


class LoggedChannel(Channel):
    """The channel under test, recording when each message enters the inbox."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def _deliver(self):
        self.log.append((self._wire.payload, self.env.now))
        super()._deliver()


OPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.0003, 0.004, 0.03, 0.4]),  # wait first
        st.sampled_from(["send", "send", "send", "front", "take", "take", "close"]),
        st.integers(0, 1),  # which channel
        st.sampled_from([64, 1_000, 30_000, 300_000]),
    ),
    min_size=1,
    max_size=60,
)


@given(ops=OPS, capacity=st.sampled_from([1, 2, 4]))
@settings(max_examples=150, deadline=None)
def test_channel_matches_the_reference_under_random_interleavings(ops, capacity):
    env = Environment()
    src = Node(env, "src", nic_bw=BW)
    real = [LoggedChannel(env, src, Node(env, f"dst{i}"), latency=LATENCY,
                          capacity=capacity) for i in range(2)]
    nic = {"busy": 0.0, "spans": []}
    ref = [RefLink(env, nic, capacity) for _ in range(2)]
    sent = [[], []]  # per channel: (payload, front?) in call order
    pending = [[], []]  # events of sends that found the outbox full
    taken = [[], []]

    def driver():
        for n, (wait, op, i, size) in enumerate(ops):
            if wait:
                yield env.timeout(wait)
            if real[i].closed:
                with pytest.raises(ChannelClosedError):
                    real[i].send(n, size)
                continue
            if op == "send":
                accepted = real[i].send(n, size)
                if not accepted.triggered:
                    pending[i].append(accepted)
                ref[i].send(n, size)
                sent[i].append((n, False))
            elif op == "front":
                real[i].send_front(n, size)
                ref[i].send(n, size, front=True)
                sent[i].append((n, True))
            elif op == "take":
                msg = real[i].take()
                assert (msg.payload if msg else None) == ref[i].take()
                if msg:
                    taken[i].append(msg.payload)
            else:
                real[i].close()
                ref[i].closed = True
        # the consumer catches up: everything still in the pipe arrives
        while any(c.pending or c._wire is not None for c in real if not c.closed):
            yield env.timeout(0.05)
            for i in range(2):
                while (msg := real[i].take()) is not None:
                    assert msg.payload == ref[i].take()
                    taken[i].append(msg.payload)

    env.run(until=env.process(driver()))
    for i in range(2):
        # every arrival instant equals the reference's, bit for bit
        assert real[i].log == ref[i].log
        arrived = [p for p, _t in real[i].log]
        assert len(set(arrived)) == len(arrived)  # no duplicate
        data = [p for p, front in sent[i] if not front]
        arrived_data = [p for p in arrived if p in set(data)]
        # data (and tokens sent like data) arrive in send order: nothing
        # sent later overtakes; only send_front may jump the queue
        assert arrived_data == data[: len(arrived_data)]
        if real[i].closed:
            assert all(ev.triggered for ev in pending[i])  # admitted, or failed by the close
        else:
            assert sorted(arrived) == sorted(p for p, _f in sent[i])  # no loss
            assert taken[i] == arrived
            assert all(ev.triggered and ev.ok for ev in pending[i])
    # one NIC, two channels: serialisations never overlap
    spans = nic["spans"]
    assert all(b[0] >= a[1] for a, b in zip(spans, spans[1:]))
    assert src.nic_out.busy_until == nic["busy"]
    assert src.nic_out.ops == len(spans)


# -- back-pressure depth -------------------------------------------------------

#: sends a capacity-16 channel accepts from a sender nobody reads from:
#: inbox 16 + 1 landed on the wire + outbox 16.  Recorded on the parent
#: commit (pump process, two Stores): the same 33.
ACCEPTED_BEFORE_BLOCKING = 33


def test_backpressure_engages_after_exactly_as_many_sends_as_before():
    env = Environment()
    a, b = Node(env, "a"), Node(env, "b")
    chan = Channel(env, a, b, capacity=16)
    accepted = []

    def producer():
        for i in range(200):
            yield chan.send(i, size=1000)
            accepted.append(i)

    proc = a.spawn(producer())
    env.run(until=5.0)
    assert len(accepted) == ACCEPTED_BEFORE_BLOCKING and proc.is_alive
    assert (chan.in_flight, chan.pending) == (16, 16)
    # exactly one consumer get lets exactly one more send through
    assert chan.take().payload == 0
    env.run(until=6.0)
    assert len(accepted) == ACCEPTED_BEFORE_BLOCKING + 1
    assert (chan.in_flight, chan.pending) == (16, 16)


# -- close while blocked -------------------------------------------------------

def test_sender_blocked_on_a_full_outbox_sees_the_close():
    """Was: close() failed the receivers but left the outbox putters
    pending, so an upstream stuck behind back-pressure hung forever when
    its downstream node died."""
    env = Environment()
    a, b = Node(env, "a"), Node(env, "b")
    chan = Channel(env, a, b, capacity=4)
    accepted, outcome = [], []

    def producer():
        try:
            for i in range(20):
                yield chan.send(i, size=1000)
                accepted.append(i)
        except ChannelClosedError:
            outcome.append(env.now)

    proc = a.spawn(producer())
    env.run(until=0.9)
    assert len(accepted) == 9 and proc.is_alive  # 4 + 1 + 4, the 10th blocked

    def killer():
        yield env.timeout(0.1)
        b.fail()

    env.process(killer())
    env.run(until=10.0)
    assert outcome == [1.0] and not proc.is_alive


# -- the two NIC lanes ---------------------------------------------------------

CHUNK_SECONDS = BandwidthPipe.DEFAULT_CHUNK / 125_000_000


def test_data_message_waits_for_at_most_one_bulk_chunk():
    env = Environment()
    a, b = Node(env, "a"), Node(env, "b")
    chan = Channel(env, a, b, latency=0.0)
    a.spawn(a.nic_out.transfer(10 * BandwidthPipe.DEFAULT_CHUNK, priority=1))
    arrived = []

    def consumer():
        yield chan.recv()
        arrived.append(env.now)

    def sender():
        yield env.timeout(0.01)  # mid-way through the first chunk
        chan.send("tuple", size=30_000)

    b.spawn(consumer())
    a.spawn(sender())
    env.run(until=1.0)
    assert arrived == [CHUNK_SECONDS + 30_000 / 125_000_000]


def test_small_write_is_not_delayed_by_bytes_booked_after_it_asked():
    env = Environment()
    a = Node(env, "a")
    chans = [Channel(env, a, Node(env, f"b{i}"), latency=0.0) for i in range(8)]
    per_msg = 125_000 / 125_000_000  # 1 ms each
    done = []

    def burst(first, last):
        for chan in chans[first:last]:
            chan.send("x", size=125_000)

    def small_write():
        yield env.timeout(0.0005)
        yield from a.nic_out.transfer(1_250, priority=0)
        done.append(env.now)

    def late_burst():
        yield env.timeout(0.001)
        burst(4, 8)

    burst(0, 4)  # booked at t=0: the NIC is theirs until 4 ms
    a.spawn(small_write())
    a.spawn(late_burst())
    env.run(until=1.0)
    # behind the four messages booked before it asked, ahead of the four after
    assert done == [pytest.approx(4 * per_msg + 1_250 / 125_000_000)]
    assert a.nic_out.busy_until == pytest.approx(done[0] + 4 * per_msg)


# -- live latency / bandwidth --------------------------------------------------

def test_latency_and_bandwidth_changes_apply_to_the_next_message():
    env = Environment()
    a, b = Node(env, "a", nic_bw=BW), Node(env, "b")
    chan = LoggedChannel(env, a, b, latency=LATENCY)

    def script():
        chan.send("m1", size=1_000)
        yield env.timeout(1.0)
        chan.latency = 0.1
        a.nic_out.bandwidth = BW / 2
        yield env.timeout(1.0)
        chan.send("m2", size=1_000)

    env.process(script())
    env.run(until=5.0)
    assert chan.log == [("m1", 0.001 + LATENCY), ("m2", (2.0 + 0.002) + 0.1)]


def test_message_still_on_the_nic_takes_the_latency_in_force_when_it_leaves():
    """A partition that starts while a message serialises applies to it
    (it has not begun to propagate); one already propagating keeps the
    latency it left with."""
    env = Environment()
    a, b = Node(env, "a", nic_bw=BW), Node(env, "b")
    slow = LoggedChannel(env, a, b, latency=LATENCY)
    fast = LoggedChannel(env, Node(env, "c", nic_bw=BW), b, latency=0.5)

    def script():
        slow.send("serialising", size=800_000)  # on the NIC until t=0.8
        fast.send("propagating", size=1_000)  # off the NIC at t=0.001
        yield env.timeout(0.4)
        slow.latency = 0.2
        fast.latency = 0.2

    env.process(script())
    env.run(until=5.0)
    assert slow.log == [("serialising", 0.8 + 0.2)]
    assert fast.log == [("propagating", 0.001 + 0.5)]
