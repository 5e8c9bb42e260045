"""Tests for nodes, channels and topology (repro.cluster)."""

import pytest

from repro.cluster import (
    Channel,
    ChannelClosedError,
    ClusterSpec,
    DataCenter,
    Node,
    NodeDownError,
)
from repro.cluster.node import BandwidthPipe
from repro.simulation import Environment, SimulationError


# --- BandwidthPipe -----------------------------------------------------------


def test_pipe_transfer_time():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=100.0)
    done = []

    def proc():
        yield from pipe.transfer(200)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [2.0]
    assert pipe.bytes_moved == 200
    assert pipe.ops == 1


def test_pipe_serialises_concurrent_transfers():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=100.0)
    done = []

    def proc(name):
        yield from pipe.transfer(100)
        done.append((env.now, name))

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert done == [(1.0, "a"), (2.0, "b")]


def test_pipe_per_op_latency():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=100.0, per_op_latency=0.5)
    assert pipe.estimate(100) == pytest.approx(1.5)


def test_pipe_rejects_nonpositive_bandwidth():
    env = Environment()
    with pytest.raises(ValueError):
        BandwidthPipe(env, bandwidth=0)


# --- Node ---------------------------------------------------------------------


def test_node_fail_interrupts_spawned_processes():
    env = Environment()
    node = Node(env, "n0")
    fate = []

    def worker():
        yield env.timeout(100.0)
        fate.append("survived")

    node.spawn(worker(), label="w")

    def killer():
        yield env.timeout(5.0)
        node.fail("test")

    env.process(killer())
    env.run()
    assert fate == []
    assert not node.alive
    assert node.failed_at == 5.0


def test_node_fail_idempotent():
    env = Environment()
    node = Node(env, "n0")
    node.fail()
    node.fail()
    assert not node.alive


def test_spawn_on_dead_node_raises():
    env = Environment()
    node = Node(env, "n0")
    node.fail()

    def gen():
        yield env.timeout(1)

    with pytest.raises(NodeDownError):
        node.spawn(gen())


def test_node_on_fail_callback():
    env = Environment()
    node = Node(env, "n0")
    seen = []
    node.on_fail(lambda n: seen.append(n.node_id))
    node.fail()
    assert seen == ["n0"]


# --- Channel --------------------------------------------------------------------


def _pair(env):
    a = Node(env, "a")
    b = Node(env, "b")
    chan = Channel(env, a, b, latency=0.001)
    return a, b, chan


def test_channel_delivers_in_order():
    env = Environment()
    _a, _b, chan = _pair(env)
    got = []

    def sender():
        for i in range(5):
            chan.send(i, size=1000)
            yield env.timeout(0.01)

    def receiver():
        for _ in range(5):
            got.append((yield chan.recv()))

    env.process(sender())
    env.process(receiver())
    env.run()
    assert got == [0, 1, 2, 3, 4]
    assert chan.messages_delivered == 5
    assert chan.bytes_delivered == 5000


def test_channel_latency_and_bandwidth():
    env = Environment()
    a = Node(env, "a", nic_bw=1000.0)
    b = Node(env, "b")
    chan = Channel(env, a, b, latency=0.5)
    arrival = []

    def receiver():
        item = yield chan.recv()
        arrival.append((env.now, item))

    chan.send("x", size=1000)  # 1s on NIC + 0.5 latency
    env.process(receiver())
    env.run()
    assert arrival == [(1.5, "x")]


def test_channel_sender_nic_contention():
    env = Environment()
    a = Node(env, "a", nic_bw=1000.0)
    b = Node(env, "b")
    c = Node(env, "c")
    ab = Channel(env, a, b, latency=0.0)
    ac = Channel(env, a, c, latency=0.0)
    times = {}

    def receiver(chan, name):
        yield chan.recv()
        times[name] = env.now

    ab.send("x", size=1000)
    ac.send("y", size=1000)
    env.process(receiver(ab, "b"))
    env.process(receiver(ac, "c"))
    env.run()
    # the two transfers share one NIC: second completes at ~2s
    assert times["b"] == pytest.approx(1.0)
    assert times["c"] == pytest.approx(2.0)


def test_channel_close_on_dst_failure():
    env = Environment()
    a, b, chan = _pair(env)
    errors = []

    def receiver():
        try:
            while True:
                yield chan.recv()
        except ChannelClosedError:
            errors.append(env.now)

    def killer():
        yield env.timeout(2.0)
        b.fail()

    env.process(receiver())
    env.process(killer())
    env.run()
    assert errors == [2.0]
    assert chan.closed


def test_channel_send_after_close_raises():
    env = Environment()
    a, b, chan = _pair(env)
    b.fail()
    with pytest.raises(ChannelClosedError):
        chan.send("x", 10)


def test_channel_drains_delivered_before_reporting_close():
    env = Environment()
    a, b, chan = _pair(env)
    got, errs = [], []

    def sender():
        chan.send("early", 10)
        yield env.timeout(1.0)
        a.fail()

    def receiver():
        yield env.timeout(2.0)  # message already delivered, channel closed
        try:
            got.append((yield chan.recv()))
            yield chan.recv()
        except ChannelClosedError:
            errs.append(env.now)

    env.process(sender())
    env.process(receiver())
    env.run()
    assert got == ["early"]
    assert errs == [2.0]


def test_channel_on_break_callback():
    env = Environment()
    a, b, chan = _pair(env)
    seen = []
    chan.on_break(lambda c: seen.append(c.name))
    a.fail()
    assert seen == [chan.name]


# --- DataCenter --------------------------------------------------------------


def test_datacenter_builds_spec():
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=10, spares=3, racks=2))
    assert len(dc.workers) == 10
    assert len(dc.spares) == 3
    assert len(dc.racks) == 2
    assert dc.storage_node.node_id == "storage"
    # every node is in a rack
    for node in dc.all_nodes:
        assert dc.rack_of(node) is not None


def test_datacenter_rack_failure_is_correlated():
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=8, spares=0, racks=2))
    rack = dc.racks[1]
    victims = rack.fail_all()
    assert len(victims) == 4
    assert all(not n.alive for n in rack.nodes)
    assert all(n.alive for n in dc.racks[0].nodes if n.node_id != "storage")


def test_claim_spare_removes_from_pool():
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=2, spares=2, racks=1))
    first = dc.claim_spare()
    assert first not in dc.spares
    assert dc.spares_available() == 1
    # ...but it is still a node of the data center (it hosts recovered HAUs)
    assert dc.node(first.node_id) is first
    assert first in dc.all_nodes
    assert first in dc.rack_of(first).nodes


def test_node_lookup_rejects_foreign_ids_and_nodes():
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=2, spares=1, racks=2))
    other = DataCenter(env, ClusterSpec(workers=2, spares=1, racks=2))
    assert [n.node_id for n in dc.all_nodes] == ["w0", "w1", "spare0", "storage"]
    with pytest.raises(KeyError):
        dc.node("w2")
    with pytest.raises(KeyError):
        dc.rack_of(other.node("w0"))


def test_claim_spare_skips_dead_and_exhausts():
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=2, spares=2, racks=1))
    dc.spares[0].fail()
    got = dc.claim_spare()
    assert got.alive
    with pytest.raises(SimulationError):
        dc.claim_spare()


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(workers=0)
    with pytest.raises(ValueError):
        ClusterSpec(racks=0)


def test_datacenter_connect_creates_tracked_channel():
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=2, spares=0, racks=1))
    chan = dc.connect(dc.workers[0], dc.workers[1])
    assert chan in list(dc.channels())
