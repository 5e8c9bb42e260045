"""End-to-end DSPS pipeline tests with a no-op scheme (no checkpointing)."""


from repro.cluster import ClusterSpec
from repro.dsps import (
    CheckpointScheme,
    DSPSRuntime,
    QueryGraph,
    RuntimeConfig,
    StreamApplication,
)
from repro.dsps.operator import (
    Emit,
    Operator,
    SinkOperator,
    SourceOperator,
    StatelessMapOperator,
)
from repro.simulation import Environment


class CountingSource(SourceOperator):
    """Emits integers 0..n-1 at a fixed interval."""

    def __init__(self, n=10, interval=0.1, size=1000, name=""):
        super().__init__(name)
        self.n = n
        self.interval = interval
        self.out_size = size

    def generate(self):
        for i in range(self.n):
            yield (self.interval, Emit(payload=i, size=self.out_size, key=i))


class AddOne(Operator):
    def on_tuple(self, port, tup):
        return [Emit(payload=tup.payload + 1, size=tup.size, key=tup.key)]


def build_runtime(graph, seed=1, workers=4, channel_capacity=64, inbox_capacity=128):
    env = Environment()
    app = StreamApplication(name="test", graph=graph)
    rt = DSPSRuntime(
        env,
        app,
        CheckpointScheme(),
        RuntimeConfig(
            seed=seed,
            cluster=ClusterSpec(workers=workers, spares=1, racks=1),
            channel_capacity=channel_capacity,
            inbox_capacity=inbox_capacity,
        ),
    )
    return env, rt


def chain_app(n=10, keep=True):
    g = QueryGraph()
    sink_holder = {}

    def make_sink():
        s = SinkOperator(keep_payloads=keep)
        sink_holder["op"] = s
        return [s]

    g.add_hau("src", lambda: [CountingSource(n=n)], is_source=True)
    g.add_hau("map", lambda: [AddOne()])
    g.add_hau("sink", make_sink, is_sink=True)
    g.connect("src", "map")
    g.connect("map", "sink")
    return g, sink_holder


def test_chain_delivers_all_tuples_in_order():
    g, holder = chain_app(n=20)
    env, rt = build_runtime(g)
    rt.start()
    env.run(until=60.0)
    sink = holder["op"]
    assert sink.received_count == 20
    assert sink.payload_log == [i + 1 for i in range(20)]


def test_sink_latency_recorded():
    g, _ = chain_app(n=5)
    env, rt = build_runtime(g)
    rt.start()
    env.run(until=30.0)
    assert rt.metrics.stage_throughput("sink") == 5
    lat = rt.metrics.stage_latency("sink")
    assert lat > 0.0
    assert lat < 1.0  # small pipeline, small latency


def test_fanout_broadcast_duplicates():
    g = QueryGraph()
    sinks = {}

    def make_sink(name):
        def factory():
            s = SinkOperator(keep_payloads=True)
            sinks[name] = s
            return [s]

        return factory

    g.add_hau("src", lambda: [CountingSource(n=5)], is_source=True)
    g.add_hau("k1", make_sink("k1"), is_sink=True)
    g.add_hau("k2", make_sink("k2"), is_sink=True)
    g.connect("src", "k1")
    g.connect("src", "k2")
    env, rt = build_runtime(g)
    rt.start()
    env.run(until=30.0)
    assert sinks["k1"].received_count == 5
    assert sinks["k2"].received_count == 5


def test_hash_routing_partitions_by_key():
    g = QueryGraph()
    sinks = {}

    def make_sink(name):
        def factory():
            s = SinkOperator(keep_payloads=True)
            sinks[name] = s
            return [s]

        return factory

    g.add_hau("src", lambda: [CountingSource(n=20)], is_source=True)
    g.add_hau("k1", make_sink("k1"), is_sink=True)
    g.add_hau("k2", make_sink("k2"), is_sink=True)
    g.connect("src", "k1", routing="hash")
    g.connect("src", "k2", routing="hash")
    env, rt = build_runtime(g)
    rt.start()
    env.run(until=60.0)
    total = sinks["k1"].received_count + sinks["k2"].received_count
    assert total == 20  # partitioned, not duplicated
    assert sinks["k1"].received_count > 0
    assert sinks["k2"].received_count > 0
    # deterministic partition: same key always to same sink
    assert set(sinks["k1"].payload_log).isdisjoint(sinks["k2"].payload_log)


def test_join_two_sources():
    g = QueryGraph()
    holder = {}

    class Join(Operator):
        state_attrs = ("seen",)

        def __init__(self):
            super().__init__()
            self.seen = []

        def on_tuple(self, port, tup):
            self.seen.append((port, tup.payload))
            return [Emit(payload=(port, tup.payload), size=tup.size)]

    def make_sink():
        s = SinkOperator(keep_payloads=True)
        holder["op"] = s
        return [s]

    g.add_hau("s0", lambda: [CountingSource(n=5)], is_source=True)
    g.add_hau("s1", lambda: [CountingSource(n=5)], is_source=True)
    g.add_hau("j", lambda: [Join()])
    g.add_hau("k", make_sink, is_sink=True)
    g.connect("s0", "j", dst_port=0)
    g.connect("s1", "j", dst_port=1)
    g.connect("j", "k")
    env, rt = build_runtime(g)
    rt.start()
    env.run(until=30.0)
    sink = holder["op"]
    assert sink.received_count == 10
    ports = {p for (p, _v) in sink.payload_log}
    assert ports == {0, 1}


def test_backpressure_blocks_source():
    """A slow sink with tiny buffers must throttle the source."""
    g = QueryGraph()

    class SlowSink(SinkOperator):
        def processing_cost(self, tup):
            return 0.5  # much slower than the source interval

    g.add_hau("src", lambda: [CountingSource(n=100, interval=0.01)], is_source=True)
    g.add_hau("sink", lambda: [SlowSink()], is_sink=True)
    g.connect("src", "sink")
    env, rt = build_runtime(g, channel_capacity=2, inbox_capacity=2)
    rt.start()
    env.run(until=10.0)
    # ~20 tuples at 0.5s each; without backpressure the source would have
    # emitted all 100 by t=1.  Source must still be mid-stream.
    src = rt.haus["src"].source_operator
    assert rt.metrics.stage_throughput("sink") <= 21
    assert src.emitted_count < 100


def test_determinism_same_seed_same_result():
    def run_once():
        g, holder = chain_app(n=15)
        env, rt = build_runtime(g, seed=42)
        rt.start()
        env.run(until=30.0)
        return (
            holder["op"].payload_log,
            rt.metrics.stage_latency("sink"),
            rt.metrics.stage_throughput("sink"),
        )

    assert run_once() == run_once()


def test_node_failure_stops_hau_processing():
    g, holder = chain_app(n=100)
    env, rt = build_runtime(g)
    rt.start()

    def killer():
        yield env.timeout(0.55)
        rt.haus["map"].node.fail("test-kill")

    env.process(killer())
    env.run(until=30.0)
    # only the tuples processed before the failure arrive
    assert 0 < holder["op"].received_count < 100


def test_multi_operator_chain_inside_hau():
    g = QueryGraph()
    holder = {}

    def make_sink():
        s = SinkOperator(keep_payloads=True)
        holder["op"] = s
        return [s]

    g.add_hau("src", lambda: [CountingSource(n=5)], is_source=True)
    g.add_hau("chain", lambda: [AddOne(), StatelessMapOperator(lambda x: x * 2)])
    g.add_hau("sink", make_sink, is_sink=True)
    g.connect("src", "chain")
    g.connect("chain", "sink")
    env, rt = build_runtime(g)
    rt.start()
    env.run(until=30.0)
    assert holder["op"].payload_log == [(i + 1) * 2 for i in range(5)]


def test_state_size_aggregates_over_operators():
    g, _ = chain_app(n=3)
    env, rt = build_runtime(g)
    rt.start()
    env.run(until=10.0)
    # sources track emitted_count (8 bytes)
    assert rt.haus["src"].state_size() == 8
    assert rt.total_state_bytes() >= 16
