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
from repro.dsps import (
    CheckpointScheme,
    DSPSRuntime,
    QueryGraph,
    RuntimeConfig,
    StreamApplication,
)
from repro.dsps.hau import _NUDGE
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
        self.broken = []

    def on_token_arrival(self, hau, edge_idx, token):
        self.tokens.append((hau.hau_id, edge_idx, token.round_id, len(hau.inbox)))

    def on_channel_broken(self, hau, edge_idx):
        self.broken.append((hau.hau_id, edge_idx, hau.env.now))


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


def test_nudge_wakes_an_idle_loop():
    env, rt = deploy(two_stage(count=0))
    mid = rt.haus["mid"]
    env.run(until=1.0)
    assert mid._wake is not None  # parked
    mid.request_safepoint()
    assert mid.inbox[0] == (-1, _NUDGE) and mid._wake is None
    env.run(until=2.0)
    assert not mid.inbox and mid._wake is not None  # passed the safe-point, parked again


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


def test_a_tuple_hop_costs_at_most_four_kernel_events():
    """Arrival, idle wake-up, processing cost — plus the source's own
    timeouts.  It was 11-13 with a pump per channel and a receiver per
    in-edge.  A count, so it cannot flake."""
    env = Environment()
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
    assert env.events_popped <= 4 * tuples, env.events_popped / tuples


def test_no_process_per_channel_or_in_edge():
    env = Environment()
    rt = DSPSRuntime(env, APPS["tmi"].build(seed=1), CheckpointScheme(), RuntimeConfig(seed=1))
    rt.start()
    assert len(rt.haus) == 55 and len(rt.data_channels) > 55
    labels = sorted(p.label for n in rt.dc.all_nodes for p in n._processes)
    assert len(labels) == 55
    assert all(label.endswith((".main", ".src")) for label in labels)
    rt.send_control("A0", ("ping",))  # a control listener is bound on first use
    assert sum(len(n._processes) for n in rt.dc.all_nodes) == 56


# -- downstream dies while the upstream is blocked -----------------------------

def test_upstream_blocked_behind_a_dead_neighbour_resumes_on_the_replacement_channel():
    scheme = Announcements()
    env, rt = deploy(two_stage(count=3000, interval=0.001), scheme,
                     channel_capacity=4, inbox_capacity=4)
    src, mid = rt.haus["src"], rt.haus["mid"]
    mid.pause_intake()
    env.run(until=1.0)
    assert src.source_operator.emitted_count == 4 + 1 + 4 + 1 + 4 + 1  # stuck
    mid.node.fail()
    env.run(until=2.0)
    # the failed send was skipped like any send on a broken edge, and the
    # source loop went on (emitting into the closed channel: dropped)
    dropped = src.source_operator.emitted_count
    assert dropped > 900 and all(p.is_alive for p in src._procs)
    # 1-safe style restart of the dead HAU alone: the upstream's out-edge
    # is re-attached and carries what it emits from now on
    new_mid, _ = rt.rebuild_single_hau("mid", rt.dc.claim_spare(), restored=None)
    new_mid.start()
    env.run(until=10.0)
    assert src.source_operator.emitted_count == 3000
    assert new_mid.tuples_processed == 3000 - dropped
    # the sink saw its upstream channel break exactly once, at the failure
    assert scheme.broken == [("sink", 0, 1.0)]


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
