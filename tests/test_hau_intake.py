"""Process-less HAU intake: what the receiver processes used to guarantee.

One hop costs a kernel event only where simulated time passes or a
process really waits (arrival, idle wake-up, processing cost); the
bounded inbox, the one item each edge holds while it is full, the FIFO
among edges waiting for a slot and the token announcement at the head
of the edge are what the per-edge receiver + ``Store`` pair provided and
are pinned here on the code that replaced them.
"""

from repro.apps import APPS, synth
from repro.cluster import ClusterSpec
from repro.cluster.channel import Channel
from repro.dsps import (
    CheckpointScheme,
    DSPSRuntime,
    QueryGraph,
    RuntimeConfig,
    StreamApplication,
)
from repro.dsps.hau import _NUDGE
from repro.dsps.operator import Emit
from repro.dsps.testing import IntervalSource, PassThrough, VerifySink
from repro.dsps.tuples import DataTuple, Token
from repro.simulation import Environment


class Slow(PassThrough):
    def processing_cost(self, tup):
        return 1.0


class Announcements(CheckpointScheme):
    def __init__(self):
        super().__init__()
        self.tokens = []

    def on_token_arrival(self, hau, edge_idx, token):
        self.tokens.append((hau.hau_id, edge_idx, token.round_id, len(hau.inbox)))


def deploy(graph, scheme=None, **config):
    env = Environment()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=graph),
        scheme or CheckpointScheme(),
        RuntimeConfig(seed=1, cluster=ClusterSpec(workers=4, spares=2, racks=1), **config),
    )
    rt.start()
    return env, rt


def two_stage(count=300, interval=0.0001, mid=PassThrough):
    g = QueryGraph()
    g.add_hau("src", lambda: [IntervalSource(count=count, interval=interval)], is_source=True)
    g.add_hau("mid", lambda: [mid()])
    g.add_hau("sink", lambda: [VerifySink()], is_sink=True)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    return g


# -- back-pressure depth -------------------------------------------------------

#: tuples a source gets out before it blocks behind a stalled consumer
#: with the harness's buffers (channel 16, inbox 32): inbox 32 + 1 in the
#: edge's hand + channel inbox 16 + 1 on the wire + outbox 16, and the
#: one whose send is pending.  Recorded on the parent commit: the same 67.
EMITTED_BEFORE_BLOCKING = 67


def test_stalled_hau_blocks_its_upstream_after_exactly_as_many_tuples_as_before():
    env, rt = deploy(two_stage(mid=Slow), channel_capacity=16, inbox_capacity=32)
    src, mid = rt.haus["src"], rt.haus["mid"]
    mid.pause_intake()
    env.run(until=5.0)
    assert src.source_operator.emitted_count == EMITTED_BEFORE_BLOCKING
    chan = rt.data_channels["src[0]->mid[0]"]
    assert (len(mid.inbox), chan.pending, chan.in_flight) == (32, 16, 16)
    # the consumer takes exactly one tuple (then spends 1 s on it):
    # exactly one more send goes through
    mid.resume_intake()
    env.run(until=5.5)
    assert mid.tuples_processed == 0 and len(mid.inbox) == 32
    assert src.source_operator.emitted_count == EMITTED_BEFORE_BLOCKING + 1


# -- the seam: enqueue / hands / slot waiters ----------------------------------

def fan_in():
    g = QueryGraph()
    for name in ("a", "b"):
        g.add_hau(name, lambda: [IntervalSource(count=0)], is_source=True)
    g.add_hau("join", lambda: [Slow()])
    g.add_hau("sink", lambda: [VerifySink()], is_sink=True)
    g.connect("a", "join")
    g.connect("b", "join")
    g.connect("join", "sink")
    return g


def test_full_inbox_holds_one_item_per_edge_and_admits_them_in_arrival_order():
    scheme = Announcements()
    env, rt = deploy(fan_in(), scheme, inbox_capacity=2)
    join = rt.haus["join"]
    join.pause_intake()
    env.run(until=0.1)
    a, b = (rt.data_channels[f"{s}[0]->join[0]"] for s in "ab")

    def names():
        return [(e, getattr(item, "payload", type(item).__name__)) for e, item in join.inbox]

    for seq in (1, 2):
        a.send(DataTuple(payload=f"a{seq}", size=10, seq=seq), 10)
    env.run(until=0.2)
    assert names() == [(0, "a1"), (0, "a2")]  # full
    a.send(DataTuple(payload="a3", size=10, seq=3), 10)
    b.send(Token(round_id=9), 64)
    b.send(DataTuple(payload="b1", size=10, seq=1), 10)
    env.run(until=0.3)
    assert join._hands[0].payload == "a3" and join._hands[1].round_id == 9
    assert join._slot_waiters == [0, 1]
    assert (a.pending, b.pending) == (0, 1)  # b1 stays in the channel, behind the hand
    # announced when it came off the channel, with the inbox full — not
    # when it got its slot
    assert scheme.tokens == [("join", 1, 9, 2)]
    join.request_safepoint()  # a nudge queues for a slot like everybody else
    assert join._slot_waiters == [0, 1, -1]
    join.resume_intake()
    env.run(until=0.4)  # a1 popped (1 s of work): one slot, one admission
    assert names() == [(0, "a2"), (0, "a3")] and join._slot_waiters == [1, -1]
    env.run(until=1.4)  # a2 popped: the token gets the slot, b1 takes the hand
    assert names() == [(0, "a3"), (1, "Token")]
    assert join._hands[1].payload == "b1" and join._slot_waiters == [-1, 1]
    env.run(until=10.0)
    assert not join.inbox and not join._slot_waiters and join.tuples_processed == 4
    assert scheme.tokens == [("join", 1, 9, 2)]  # once


class CountsEmits(CheckpointScheme):
    def __init__(self):
        super().__init__()
        self.emits = 0

    def on_emit(self, hau, edge, tup):
        self.emits += 1
        return
        yield  # pragma: no cover


def test_on_emit_is_driven_only_when_a_scheme_overrides_it():
    _, rt = deploy(two_stage(count=0))
    assert all(hau._hook_on_emit is None for hau in rt.haus.values())
    scheme = CountsEmits()
    env, rt = deploy(two_stage(count=5), scheme)
    env.run(until=1.0)
    assert scheme.emits == 5 + 5  # src -> mid and mid -> sink


# -- emission: work or None ------------------------------------------------------

def fan_out():
    """``src`` broadcasts to ``a`` then ``b``; both are slow."""
    g = QueryGraph()
    g.add_hau("src", lambda: [IntervalSource(count=0)], is_source=True)
    for name in ("a", "b"):
        g.add_hau(name, lambda: [Slow()])
        g.add_hau(f"{name}k", lambda: [VerifySink()], is_sink=True)
        g.connect("src", name)
        g.connect(name, f"{name}k")
    return g


def record_sends(monkeypatch, log):
    """Log ``(now, "send", dst, seq)`` for every data send out of ``src``."""
    send = Channel.send

    def logged(chan, payload, size):
        if chan.name.startswith("src["):
            log.append((chan.env.now, "send", chan.name.split("->")[1], payload.seq))
        return send(chan, payload, size)

    monkeypatch.setattr(Channel, "send", logged)


class SlowPreservation(CheckpointScheme):
    """``src``'s ``on_emit`` returns work: 0.5 s, logged as it starts."""

    def __init__(self, log, during=None):
        super().__init__()
        self.log = log
        self.during = during  # called once, inside the first hook's work

    def on_emit(self, hau, edge, tup):
        return self._preserve(hau, edge, tup) if hau.hau_id == "src" else None

    def _preserve(self, hau, edge, tup):
        self.log.append((hau.env.now, "hook", edge.dst, tup.seq))
        yield hau.env.timeout(0.5)
        if self.during is not None:
            self.during, during = None, self.during
            during()


def test_emit_with_room_and_no_hook_work_returns_none_and_the_tuple_is_on_the_wire(
    monkeypatch,
):
    log = []
    record_sends(monkeypatch, log)
    env, rt = deploy(fan_out())
    src = rt.haus["src"]
    assert src.emit(Emit(payload="x", size=10, key=1), 0.0, "src") is None
    assert log == [(0.0, "send", "a[0]", 1), (0.0, "send", "b[0]", 1)]
    env.run(until=5.0)
    assert rt.haus["ak"].operators[0].payload_log == ["x"]
    assert rt.haus["bk"].operators[0].payload_log == ["x"]


def test_emit_into_a_full_outbox_returns_work_that_sends_every_edge_in_order(monkeypatch):
    log = []
    record_sends(monkeypatch, log)
    env, rt = deploy(fan_out(), channel_capacity=1)
    src = rt.haus["src"]
    # one message on each wire, one in each outbox: the third finds a's full
    assert src.emit(Emit(payload=1, size=10), 0.0, "src") is None
    assert src.emit(Emit(payload=2, size=10), 0.0, "src") is None
    work = src.emit(Emit(payload=3, size=10), 0.0, "src")
    assert work is not None
    assert log[-1] == (0.0, "send", "a[0]", 3)  # queued; b is not reached yet
    env.process(work)
    env.run(until=10.0)
    assert [entry[2:] for entry in log] == [
        (edge, seq) for seq in (1, 2, 3) for edge in ("a[0]", "b[0]")
    ]
    assert log[-1][0] > 0.0  # b's send waited for a's slot
    for sink in ("ak", "bk"):
        assert rt.haus[sink].operators[0].payload_log == [1, 2, 3]


def test_emit_runs_the_hooks_work_before_each_send(monkeypatch):
    log = []
    record_sends(monkeypatch, log)
    env, rt = deploy(fan_out(), SlowPreservation(log))
    src = rt.haus["src"]
    work = src.emit(Emit(payload="x", size=10), 0.0, "src")
    assert work is not None and log == []  # nothing is sent ahead of the hook's work
    env.process(work)
    env.run(until=5.0)
    assert log == [
        (0.0, "hook", "a", 1), (0.5, "send", "a[0]", 1),
        (0.5, "hook", "b", 1), (1.0, "send", "b[0]", 1),
    ]
    assert src._out_seq == {"src[0]->a[0]": 1, "src[0]->b[0]": 1}


def test_a_channel_that_closes_mid_emission_is_skipped(monkeypatch):
    log = []
    record_sends(monkeypatch, log)
    chans = {}
    scheme = SlowPreservation(log, during=lambda: chans["b"].close())
    env, rt = deploy(fan_out(), scheme)
    chans["b"] = rt.data_channels["src[0]->b[0]"]
    src = rt.haus["src"]
    env.process(src.emit(Emit(payload="x", size=10), 0.0, "src"))
    env.run(until=5.0)
    # b's tuple is still preserved (its hook ran) and numbered, but not sent
    assert log == [
        (0.0, "hook", "a", 1), (0.5, "send", "a[0]", 1), (0.5, "hook", "b", 1),
    ]
    assert src._out_seq == {"src[0]->a[0]": 1, "src[0]->b[0]": 1}
    # a channel that closes while a send waits for its outbox: skipped too
    log.clear()
    env, rt = deploy(fan_out(), channel_capacity=1)
    src = rt.haus["src"]
    for n in (1, 2):
        assert src.emit(Emit(payload=n, size=10), 0.0, "src") is None
    work = src.emit(Emit(payload=3, size=10), 0.0, "src")
    rt.data_channels["src[0]->a[0]"].close()
    env.process(work)
    env.run(until=10.0)
    assert log[-2:] == [(0.0, "send", "a[0]", 3), (0.0, "send", "b[0]", 3)]
    assert rt.haus["bk"].operators[0].payload_log == [1, 2, 3]


class PortThreeSource(IntervalSource):
    def generate(self):
        for delay, emit in super().generate():
            yield delay, Emit(emit.payload, emit.size, port=3, key=emit.key)


def test_a_source_sends_on_port_zero_whatever_port_its_emit_names():
    g = QueryGraph()
    g.add_hau("src", lambda: [PortThreeSource(count=5, interval=0.01)], is_source=True)
    g.add_hau("sink", lambda: [VerifySink()], is_sink=True)
    g.connect("src", "sink")
    env, rt = deploy(g)
    env.run(until=1.0)
    assert rt.haus["sink"].operators[0].payload_log == [0, 1, 2, 3, 4]


class OneShot(CheckpointScheme):
    """``maybe_checkpoint`` answers None until a HAU is armed, then work once."""

    def __init__(self):
        super().__init__()
        self.armed = set()
        self.boundaries = 0
        self.ran = []

    def maybe_checkpoint(self, hau):
        self.boundaries += 1
        if hau.hau_id not in self.armed:
            return None
        self.armed.discard(hau.hau_id)
        return self._work(hau)

    def _work(self, hau):
        self.ran.append((hau.hau_id, hau.env.now, hau.tuples_processed))
        yield hau.env.timeout(0.002)
        self.ran.append((hau.hau_id, hau.env.now, "done"))


def test_maybe_checkpoint_work_runs_once_at_the_next_tuple_boundary():
    scheme = OneShot()
    env, rt = deploy(two_stage(count=100, interval=0.01), scheme)
    env.run(until=0.505)  # between two arrivals at mid
    mid = rt.haus["mid"]
    assert mid._parked is not None  # parked: its next boundary is the nudge's
    before, processed = scheme.boundaries, mid.tuples_processed
    scheme.armed.add("mid")
    mid.request_safepoint()
    env.run(until=5.0)
    assert scheme.ran == [("mid", 0.505, processed), ("mid", 0.507, "done")]
    assert scheme.boundaries > before + 2 * 49  # None at every other boundary
    assert mid.tuples_processed == 100
    assert rt.haus["sink"].operators[0].received_count == 100


def test_nudge_wakes_an_idle_loop():
    env, rt = deploy(two_stage(count=0))
    mid = rt.haus["mid"]
    env.run(until=1.0)
    assert mid._parked is mid._proc  # parked
    mid.request_safepoint()
    assert mid.inbox[0] == (-1, _NUDGE) and mid._parked is None
    env.run(until=2.0)
    assert not mid.inbox and mid._parked is mid._proc  # passed the safe-point, parked again



# -- intake pause (synchronous checkpoints) ------------------------------------

def idle_hau():
    """A built HAU whose loop is not running: only the test's processes
    wait on its intake."""
    env = Environment()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=two_stage()),
        CheckpointScheme(),
        RuntimeConfig(seed=1, cluster=ClusterSpec(workers=4, spares=2, racks=1)),
    )
    rt.build()
    return env, rt.haus["mid"]


def test_intake_open_passes_immediately():
    env, hau = idle_hau()
    times = []

    def proc():
        yield hau.intake()
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [0.0]


def test_closed_intake_blocks_until_resumed():
    env, hau = idle_hau()
    hau.pause_intake()
    times = []

    def proc():
        yield hau.intake()
        times.append(env.now)

    def opener():
        yield env.timeout(5.0)
        hau.resume_intake()

    env.process(proc())
    env.process(opener())
    env.run()
    assert times == [5.0]


def test_intake_reclose():
    env, hau = idle_hau()
    times = []

    def proc():
        yield hau.intake()
        hau.pause_intake()
        yield env.timeout(1.0)
        # second wait blocks until reopened
        yield hau.intake()
        times.append(env.now)

    def opener():
        yield env.timeout(10.0)
        hau.resume_intake()

    env.process(proc())
    env.process(opener())
    env.run()
    assert times == [10.0]


def test_closed_intake_releases_its_waiters_first_come_first():
    env, hau = idle_hau()
    hau.pause_intake()
    assert hau._intake_waiters == ()  # allocated by the first waiter
    order = []

    def waiter(name, delay):
        yield env.timeout(delay)
        yield hau.intake()
        order.append(name)

    for name, delay in (("b", 2.0), ("a", 1.0), ("c", 3.0)):
        env.process(waiter(name, delay))
    env.run(until=4.0)
    assert order == [] and len(hau._intake_waiters) == 3
    hau.resume_intake()
    env.run()
    assert order == ["a", "b", "c"] and hau._intake_waiters == ()


# -- the event budget ----------------------------------------------------------

def chain(replicas, count):
    stage = {"replicas": replicas, "size": 4096}
    return {
        "stages": [
            {"name": "S", "kind": "source", "count": count, "interval": 0.005, **stage},
            {"name": "W", "kind": "map", **stage},
            {"name": "A", "kind": "map", **stage},
            {"name": "K", "kind": "sink", "replicas": replicas},
        ],
        "edges": [
            {"src": s, "dst": d, "pairing": "aligned"}
            for s, d in (("S", "W"), ("W", "A"), ("A", "K"))
        ],
    }


def run_chain(env):
    """The 8-replica aligned chain, 24 tuples a source, run until drained;
    returns the tuples processed."""
    rt = DSPSRuntime(
        env,
        synth.build(seed=1, topology=chain(8, 24)),
        CheckpointScheme(),
        RuntimeConfig(seed=1, cluster=ClusterSpec(workers=4, spares=2, racks=2),
                      channel_capacity=16, inbox_capacity=32),
    )
    rt.start()
    env.run(until=2.0)
    tuples = sum(h.tuples_processed for h in rt.haus.values())
    assert tuples == 3 * 24 * 8  # W + A + K, fully drained
    return tuples


def test_a_tuple_hop_costs_at_most_four_kernel_events():
    """Arrival, idle wake-up, processing cost — plus the source's own
    timeouts.  It was 11-13 with a pump per channel and a receiver per
    in-edge.  A count, so it cannot flake."""
    env = Environment()
    tuples = run_chain(env)
    assert env.events_popped <= 4 * tuples, env.events_popped / tuples


class TimeoutCounting(Environment):
    __slots__ = ("timeouts",)

    def __init__(self):
        super().__init__()
        self.timeouts = 0

    def timeout(self, delay, value=None):
        self.timeouts += 1
        return super().timeout(delay, value)


def test_a_tuple_hop_draws_no_pooled_event_but_its_timeouts():
    """An item crosses a channel as itself, an idle loop is unparked by a
    kick and a tuple is processed without a generator: the only events
    the run draws from the free lists are the processing costs and the
    sources' waits.  It drew a wake event per idle wake-up as well."""
    env = TimeoutCounting()
    run_chain(env)
    assert env.timeouts > 0
    assert env.pool_hits + env.pool_misses == env.timeouts


def test_no_process_per_channel_or_in_edge():
    env = Environment()
    rt = DSPSRuntime(env, APPS["tmi"].build(seed=1), CheckpointScheme(), RuntimeConfig(seed=1))
    rt.start()
    assert len(rt.haus) == 55 and len(rt.data_channels) > 55
    labels = sorted(p.label for n in rt.dc.all_nodes for p in n._processes)
    assert len(labels) == 55
    assert all(label.endswith((".main", ".src")) for label in labels)
    rt.send_control("A0", ("ping",))  # binding a control link spawns nothing either
    assert sum(len(n._processes) for n in rt.dc.all_nodes) == 55


# -- downstream dies while the upstream is blocked -----------------------------

def test_upstream_blocked_behind_a_dead_neighbour_resumes_on_the_replacement_channel():
    env, rt = deploy(two_stage(count=3000, interval=0.001),
                     channel_capacity=4, inbox_capacity=4)
    src, mid, sink = rt.haus["src"], rt.haus["mid"], rt.haus["sink"]
    mid.pause_intake()
    env.run(until=1.0)
    assert src.source_operator.emitted_count == 4 + 1 + 4 + 1 + 4 + 1  # stuck
    broken = sink.in_channels[0]
    mid.node.fail()
    assert broken.closed  # the sink's upstream channel broke with the node
    env.run(until=2.0)
    # the failed send was skipped like any send on a broken edge, and the
    # source loop went on (emitting into the closed channel: dropped)
    dropped = src.source_operator.emitted_count
    assert dropped > 900 and src._proc.is_alive
    # 1-safe style restart of the dead HAU alone: the upstream's out-edge
    # is re-attached and carries what it emits from now on
    new_mid, _ = rt.rebuild_single_hau("mid", rt.dc.claim_spare(), restored=None)
    new_mid.start()
    env.run(until=10.0)
    assert src.source_operator.emitted_count == 3000
    assert new_mid.tuples_processed == 3000 - dropped
    # ... and the sink takes them from the replacement channel
    assert sink.in_channels[0] is not broken and not sink.in_channels[0].closed


def test_rolled_back_hau_is_not_kept_alive_by_its_channels():
    """A channel calls its consumer one last time when it closes and lets
    go of it: nodes and the data centre keep closed channels for good,
    and through them a torn-down HAU would keep its operator state (the
    previous incarnation of every HAU, after a global rollback)."""
    import gc
    import weakref

    env, rt = deploy(two_stage(count=5))
    env.run(until=1.0)
    old = weakref.ref(rt.haus["mid"])
    placement = dict(rt.placement)
    rt.teardown_application()
    rt.rewire(placement, {})
    env.run(until=1.5)  # the interrupted loops finish
    gc.collect()
    assert old() is None
