"""Tests for shared storage and the local (input-preservation) store."""

from types import SimpleNamespace

import pytest

from repro.cluster import ClusterSpec, DataCenter, NodeDownError
from repro.core.preservation import InputPreserver
from repro.dsps import CheckpointScheme, DSPSRuntime, QueryGraph, RuntimeConfig, StreamApplication
from repro.dsps.testing import IntervalSource, VerifySink
from repro.dsps.tuples import DataTuple
from repro.simulation import Environment
from repro.storage import SharedStorage, StorageClient, StorageError


def make_dc():
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=3, spares=1, racks=1))
    storage = SharedStorage(env, dc.storage_node)
    return env, dc, storage


# --- SharedStorage -------------------------------------------------------------


def test_a_runtime_storage_rpc_takes_the_cluster_latency():
    g = QueryGraph()
    g.add_hau("src", lambda: [IntervalSource(count=1, interval=0.1)], is_source=True)
    g.add_hau("sink", lambda: [VerifySink()], is_sink=True)
    g.connect("src", "sink")
    rt = DSPSRuntime(
        Environment(),
        StreamApplication(name="t", graph=g),
        CheckpointScheme(),
        RuntimeConfig(cluster=ClusterSpec(workers=2, spares=1, racks=1, latency=0.002)),
    )
    assert rt.storage.latency == 0.002  # the channels' one-way latency, not the default


def test_write_then_read_roundtrip():
    env, dc, storage = make_dc()
    client = StorageClient(dc.workers[0], storage)
    result = []

    def proc():
        version = yield from client.write("ckpt", "hau1", {"s": 1}, size=1_000_000)
        obj = yield from client.read("ckpt", "hau1", version)
        result.append((version, obj.value, obj.size))

    env.process(proc())
    env.run()
    assert result == [(0, {"s": 1}, 1_000_000)]
    assert storage.bytes_written == 1_000_000
    assert storage.bytes_read == 1_000_000


def test_versions_accumulate_and_latest_wins():
    env, dc, storage = make_dc()
    client = StorageClient(dc.workers[0], storage)

    def proc():
        yield from client.write("ckpt", "k", "v0", size=10)
        yield from client.write("ckpt", "k", "v1", size=10)

    env.process(proc())
    env.run()
    assert storage.latest_version("ckpt", "k") == 1
    assert storage.lookup("ckpt", "k").value == "v1"
    assert storage.lookup("ckpt", "k", version=0).value == "v0"


def test_read_missing_key_raises():
    env, dc, storage = make_dc()
    client = StorageClient(dc.workers[0], storage)

    def proc():
        yield from client.read("ckpt", "nope")

    p = env.process(proc())
    with pytest.raises(StorageError):
        env.run(until=p)


def test_disk_contention_shares_bandwidth():
    env, dc, storage = make_dc()
    finishes = []

    def writer(i):
        client = StorageClient(dc.workers[i], storage)
        yield from client.write("ckpt", f"k{i}", i, size=100_000_000)
        finishes.append(env.now)

    # measure one uncontended write first
    env.process(writer(0))
    env.run()
    solo = finishes[0]
    env2, dc2, storage2 = make_dc()
    finishes2 = []

    def writer2(i):
        client = StorageClient(dc2.workers[i], storage2)
        yield from client.write("ckpt", f"k{i}", i, size=100_000_000)
        finishes2.append(env2.now)

    for i in range(3):
        env2.process(writer2(i))
    env2.run()
    # Chunked fair sharing: three concurrent 100 MB writes through one
    # disk each take roughly 3x the uncontended time.
    assert finishes2[-1] > 2.0 * solo
    assert finishes2[-1] < 4.0 * solo


def test_drop_versions_before_gc():
    env, dc, storage = make_dc()
    client = StorageClient(dc.workers[0], storage)

    def proc():
        for v in range(3):
            yield from client.write("ckpt", "k", v, size=100)

    env.process(proc())
    env.run()
    assert storage.total_bytes("ckpt") == 300
    storage.drop_versions_before("ckpt", "k", 2)
    assert storage.total_bytes("ckpt") == 100
    assert storage.lookup("ckpt", "k").value == 2


def test_keys_and_exists():
    env, dc, storage = make_dc()
    client = StorageClient(dc.workers[0], storage)

    def proc():
        yield from client.write("ns", "b", 1, size=1)
        yield from client.write("ns", "a", 1, size=1)
        yield from client.write("other", "z", 1, size=1)

    env.process(proc())
    env.run()
    assert storage.keys("ns") == ["a", "b"]
    assert storage.exists("ns", "a")
    assert not storage.exists("ns", "z")


def test_write_from_dead_node_raises():
    env, dc, storage = make_dc()
    node = dc.workers[0]
    client = StorageClient(node, storage)
    node.fail()

    def proc():
        yield from client.write("ckpt", "k", 1, size=10)

    p = env.process(proc())
    with pytest.raises(Exception):
        env.run(until=p)


# --- the local store: InputPreserver's per-HAU retention ----------------------


def retain_all(env, pres, node, entries):
    """Retain ``(seq, size)`` tuples on edge ``e`` of a HAU on ``node``;
    the simulated seconds it took."""
    hau = SimpleNamespace(hau_id="h", node=node)

    def proc():
        for seq, size in entries:
            yield from pres.retain(hau, "e", DataTuple(payload=seq, size=size, seq=seq))

    t0 = env.now
    env.run(until=env.process(proc()))
    return env.now - t0


def test_local_store_append_within_buffer_is_free():
    env, dc, _ = make_dc()
    node = dc.workers[0]
    pres = InputPreserver(buffer_bytes=1000)
    assert retain_all(env, pres, node, [(1, 400), (2, 400)]) == 0.0  # no spill
    assert pres.retained_bytes("h") == 800
    assert node.disk.bytes_moved == 0


def test_local_store_spills_when_full():
    env, dc, _ = make_dc()
    node = dc.workers[0]
    pres = InputPreserver(buffer_bytes=1000)
    # 300+300+600 > 1000: the whole 600-byte buffer is dumped, in one write
    assert retain_all(env, pres, node, [(1, 300), (2, 300), (3, 600)]) > 0.0
    assert node.disk.bytes_moved == 600
    assert pres.retained_bytes("h") == 1200


def test_local_store_discard_through():
    env, dc, _ = make_dc()
    pres = InputPreserver(buffer_bytes=100)
    retain_all(env, pres, dc.workers[0], [(i, 60) for i in range(1, 6)])  # spills repeatedly
    assert pres.ack("h", "e", 3) == 180
    assert pres.retained_bytes("h") == 120


def test_local_store_replay_after_returns_order():
    env, dc, _ = make_dc()
    pres = InputPreserver(buffer_bytes=100)
    retain_all(env, pres, dc.workers[0], [(3, 60), (1, 60), (5, 60), (2, 60), (4, 60)])
    tuples = env.run(until=env.process(pres.replay("h", "e", after_seq=1)))
    assert [t.seq for t in tuples] == [2, 3, 4, 5]


def test_local_store_lost_on_node_failure():
    env, dc, _ = make_dc()
    node = dc.workers[0]
    pres = InputPreserver()
    node.fail()
    with pytest.raises(NodeDownError):
        retain_all(env, pres, node, [(1, 10)])
