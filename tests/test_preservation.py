"""Unit tests for the preservation disciplines (repro.core.preservation)."""


from repro.cluster import ClusterSpec
from repro.core.preservation import InputPreserver, SourcePreserver
from repro.dsps import QueryGraph, RuntimeConfig, StreamApplication, DSPSRuntime
from repro.dsps import CheckpointScheme
from repro.dsps.testing import IntervalSource, VerifySink
from repro.dsps.tuples import DataTuple
from repro.simulation import Environment


def make_runtime():
    g = QueryGraph()
    g.add_hau("src", lambda: [IntervalSource(count=3, interval=0.1)], is_source=True)
    g.add_hau("sink", lambda: [VerifySink()], is_sink=True)
    g.connect("src", "sink")
    env = Environment()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=g),
        CheckpointScheme(),
        RuntimeConfig(seed=1, cluster=ClusterSpec(workers=2, spares=1, racks=1)),
    )
    rt.start()
    return env, rt


def tup(seq, size=1000):
    return DataTuple(payload=seq, size=size, seq=seq, created_at=0.0)


# --- SourcePreserver ------------------------------------------------------------


def test_source_preserver_roundtrip_and_order():
    env, rt = make_runtime()
    pres = SourcePreserver(rt.storage)
    hau = rt.haus["src"]

    def proc():
        for s in (3, 1, 2):
            yield from pres.preserve(hau, tup(s))

    env.process(proc())
    env.run(until=5.0)
    assert rt.storage.written_by_namespace["preserve"] == 3000
    assert pres.retained_bytes("src") == 3000
    replay = pres.replay_tuples("src", after_seq=1)
    assert [t.seq for t in replay] == [2, 3]  # ordered, filtered


def test_source_preserver_discard_through():
    env, rt = make_runtime()
    pres = SourcePreserver(rt.storage)
    hau = rt.haus["src"]

    def proc():
        for s in (1, 2, 3, 4):
            yield from pres.preserve(hau, tup(s))

    env.process(proc())
    env.run(until=5.0)
    pres.discard_through("src", 2)
    assert [t.seq for t in pres.replay_tuples("src", 0)] == [3, 4]


def test_source_preserver_empty_replay():
    env, rt = make_runtime()
    pres = SourcePreserver(rt.storage)
    assert pres.replay_tuples("nope", 0) == []
    assert pres.retained_bytes("nope") == 0


# --- InputPreserver ---------------------------------------------------------------


def test_input_preserver_retain_ack_replay():
    env, rt = make_runtime()
    pres = InputPreserver(buffer_bytes=100_000)
    hau = rt.haus["src"]

    def proc():
        for s in (1, 2, 3, 4, 5):
            yield from pres.retain(hau, "e", tup(s))

    env.process(proc())
    env.run(until=5.0)
    assert pres.retained_bytes("src") == 5000
    freed = pres.ack("src", "e", 2)
    assert freed == 2000

    out = {}

    def replay():
        out["tuples"] = yield from pres.replay("src", "e", after_seq=2)

    env.process(replay())
    env.run(until=10.0)
    assert [t.seq for t in out["tuples"]] == [3, 4, 5]


def test_input_preserver_separates_edges():
    env, rt = make_runtime()
    pres = InputPreserver()
    hau = rt.haus["src"]

    def proc():
        yield from pres.retain(hau, "e1", tup(1))
        yield from pres.retain(hau, "e2", tup(1))

    env.process(proc())
    env.run(until=5.0)
    out = {}

    def replay():
        out["e1"] = yield from pres.replay("src", "e1", 0)

    env.process(replay())
    env.run(until=10.0)
    assert len(out["e1"]) == 1


def test_an_ack_frees_only_its_own_edge_and_a_replay_bills_only_its_edge():
    """Each edge's seqs count on their own, so an ack through ``e``'s seq
    must leave ``f``'s lower-or-equal seqs retained, and a replay of ``e``
    reads only ``e``'s spilled bytes from the disk."""
    env, rt = make_runtime()
    pres = InputPreserver(buffer_bytes=250)
    hau = rt.haus["src"]

    def proc():
        for s in (1, 2, 3):
            yield from pres.retain(hau, "e", tup(s, size=100))
            yield from pres.retain(hau, "f", tup(s, size=100))

    # the buffer holds two: e1 f1, then e2 f2, are dumped; e3 f3 stay in memory
    env.run(until=env.process(proc()))
    disk = hau.node.disk
    assert disk.bytes_moved == 400
    assert pres.ack("src", "e", 1) == 100
    assert pres.retained_bytes("src") == 500

    def replay(edge_id, after_seq):
        moved = disk.bytes_moved
        tuples = env.run(until=env.process(pres.replay("src", edge_id, after_seq)))
        return [t.seq for t in tuples], disk.bytes_moved - moved

    assert replay("e", 1) == ([2, 3], 100)  # e2 from disk; f2 is not read
    assert replay("f", 0) == ([1, 2, 3], 200)  # f keeps every entry


def test_input_preserver_store_recreated_on_node_change():
    env, rt = make_runtime()
    pres = InputPreserver()
    hau = rt.haus["src"]
    env.run(until=env.process(pres.retain(hau, "e", tup(1))))
    old = hau.node
    hau.node = next(n for n in rt.dc.workers if n is not old)  # a restart on another node
    env.run(until=env.process(pres.retain(hau, "e", tup(2, size=300))))
    assert pres.retained_bytes("src") == 300  # fresh (empty) retention: data was lost
    old.fail("injected")
    assert not pres.buffer_lost("src")  # the buffer lives on the new node


def test_input_preserver_ack_unknown_hau():
    pres = InputPreserver()
    assert pres.ack("ghost", "e", 10) == 0


def test_input_preserver_replay_unknown_hau():
    env, rt = make_runtime()
    pres = InputPreserver()
    out = {}

    def replay():
        out["r"] = yield from pres.replay("ghost", "e", 0)

    env.process(replay())
    env.run(until=1.0)
    assert out["r"] == []
