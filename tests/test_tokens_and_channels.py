"""Tests for token semantics on the wire: head-of-queue insertion,
stream boundaries in the inbox, and pre-token backlog extraction."""

import pytest

from repro.cluster import Channel, ClusterSpec
from repro.dsps import (
    CheckpointScheme,
    DSPSRuntime,
    QueryGraph,
    RuntimeConfig,
    StreamApplication,
)
from repro.dsps.testing import IntervalSource, PassThrough, VerifySink
from repro.dsps.tuples import TOKEN_SIZE, DataTuple, Token, is_token
from repro.simulation import Environment
from repro.cluster.node import Node


def test_token_dataclass_identity():
    a = Token(round_id=1, origin="x", kind="one_hop")
    b = Token(round_id=1, origin="x", kind="one_hop")
    assert a == b
    assert a.size == TOKEN_SIZE
    assert is_token(a)
    assert not is_token(DataTuple(payload=1, size=10))


def test_send_front_overtakes_queued_data():
    env = Environment()
    a = Node(env, "a", nic_bw=1_000_000.0)
    b = Node(env, "b")
    chan = Channel(env, a, b, latency=0.0, capacity=10)
    got = []

    def receiver():
        for _ in range(4):
            got.append((yield chan.recv()))

    for i in range(3):
        chan.send(f"d{i}", size=100_000)  # each takes 0.1s on the NIC
    chan.send_front("TOKEN", size=64)
    env.process(receiver())
    env.run()
    # d0 may already be in the NIC when the token is inserted, but the
    # token must precede every *queued* tuple
    assert got.index("TOKEN") <= 1
    assert got.index("TOKEN") < got.index("d1")


def test_send_front_on_closed_channel_raises():
    from repro.cluster import ChannelClosedError

    env = Environment()
    a = Node(env, "a")
    b = Node(env, "b")
    chan = Channel(env, a, b)
    b.fail()
    with pytest.raises(ChannelClosedError):
        chan.send_front("t", 64)


def _tiny_runtime():
    g = QueryGraph()
    g.add_hau("src", lambda: [IntervalSource(count=5, interval=0.1)], is_source=True)
    g.add_hau("mid", lambda: [PassThrough()])
    g.add_hau("sink", lambda: [VerifySink()], is_sink=True)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    env = Environment()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=g),
        CheckpointScheme(),
        RuntimeConfig(seed=1, cluster=ClusterSpec(workers=3, spares=1, racks=1)),
    )
    rt.start()
    return env, rt


def test_pre_token_backlog_splits_at_token():
    env, rt = _tiny_runtime()
    hau = rt.haus["mid"]
    # hand-build an inbox: two pre-token tuples, the token, one post-token
    hau.pause_intake()
    env.run(until=0.01)
    hau.enqueue(0, DataTuple(payload="pre1", size=10, seq=101))
    hau.enqueue(0, DataTuple(payload="pre2", size=10, seq=102))
    hau.enqueue(0, Token(round_id=7, kind="one_hop"))
    hau.enqueue(0, DataTuple(payload="post", size=10, seq=103))
    backlog = hau.pre_token_backlog(round_id=7)
    payloads = [t.payload for (_e, t) in backlog]
    assert payloads == ["pre1", "pre2"]


def test_pre_token_backlog_skips_blocked_edges():
    env, rt = _tiny_runtime()
    hau = rt.haus["mid"]
    hau.pause_intake()
    env.run(until=0.01)
    hau.block_edge(0)
    hau.enqueue(0, DataTuple(payload="held", size=10, seq=50))
    assert hau.pre_token_backlog(round_id=1) == []


def test_checkpoint_payload_accounts_saved_tuples():
    env, rt = _tiny_runtime()
    hau = rt.haus["mid"]
    hau.pause_intake()
    env.run(until=0.01)
    hau.enqueue(0, DataTuple(payload="pre", size=111, seq=1))
    hau.enqueue(0, Token(round_id=3, kind="one_hop"))
    extra = [("mid[0]->sink[0]", DataTuple(payload="copy", size=222, seq=9))]
    payload = hau.build_checkpoint_payload(3, extra_out=extra)
    assert len(payload["backlog"]) == 1
    assert len(payload["out_tuples"]) == 1
    base = hau.state_size()
    assert payload["state_size"] == base + 111 + 222


def test_unblock_drains_holdback_in_order():
    env, rt = _tiny_runtime()
    hau = rt.haus["mid"]
    hau.block_edge(0)
    hau.holdback[0].extend(
        [DataTuple(payload=i, size=1, seq=i) for i in (1, 2, 3)]
    )
    drained = hau.unblock_all_edges()
    assert [t.payload for (_e, t) in drained] == [1, 2, 3]
    assert not hau.blocked_edges
    assert not hau.holdback
