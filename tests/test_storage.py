"""Tests for shared storage and local (input-preservation) store."""

import pytest

from repro.cluster import ClusterSpec, DataCenter
from repro.dsps import CheckpointScheme, DSPSRuntime, QueryGraph, RuntimeConfig, StreamApplication
from repro.dsps.testing import IntervalSource, VerifySink
from repro.simulation import Environment
from repro.storage import LocalStore, SharedStorage, StorageClient, StorageError


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


# --- LocalStore ------------------------------------------------------------------


def test_local_store_append_within_buffer_is_free():
    env, dc, _ = make_dc()
    node = dc.workers[0]
    store = LocalStore(node, buffer_bytes=1000)

    def proc():
        yield from store.append(0, "a", 400)
        yield from store.append(1, "b", 400)

    env.process(proc())
    env.run()
    assert env.now == 0.0  # no spill, no disk time
    assert store.mem_bytes == 800
    assert store.spills == 0


def test_local_store_spills_when_full():
    env, dc, _ = make_dc()
    node = dc.workers[0]
    store = LocalStore(node, buffer_bytes=1000)

    def proc():
        yield from store.append(0, "a", 600)
        yield from store.append(1, "b", 600)  # 600+600 > 1000 -> spill first

    env.process(proc())
    env.run()
    assert store.spills == 1
    assert store.bytes_spilled == 600
    assert store.disk_bytes == 600
    assert store.mem_bytes == 600
    assert env.now > 0.0  # paid disk time


def test_local_store_discard_through():
    env, dc, _ = make_dc()
    node = dc.workers[0]
    store = LocalStore(node, buffer_bytes=100)

    def proc():
        for i in range(5):
            yield from store.append(i, f"t{i}", 60)  # spills repeatedly

    env.process(proc())
    env.run()
    total_before = len(store)
    freed = store.discard_through(2)
    assert freed == 180
    assert len(store) == total_before - 3


def test_local_store_replay_after_returns_order():
    env, dc, _ = make_dc()
    node = dc.workers[0]
    store = LocalStore(node, buffer_bytes=100)
    out = []

    def proc():
        for i in range(5):
            yield from store.append(i, f"t{i}", 60)
        items = yield from store.replay_after(1)
        out.extend(s for (s, _i, _z) in items)

    env.process(proc())
    env.run()
    assert out == [2, 3, 4]


def test_local_store_lost_on_node_failure():
    env, dc, _ = make_dc()
    node = dc.workers[0]
    store = LocalStore(node)
    node.fail()

    def proc():
        yield from store.append(0, "x", 10)

    p = env.process(proc())
    with pytest.raises(Exception):
        env.run(until=p)
