"""Layer microbenches: one bare public object each, no application.

Each bench does a fixed amount of work sized to take at least half a
host second here and reports operations per host second.  They isolate
a layer's primitive from the workloads that mix them: the kernel's
schedule/pop/resume cycle from resource hand-offs, a channel from the
HAU loop around it, a storage write from the scheme that issues it.

``python -m perf.micro`` prints all of them; the traced benchmark pass
runs each group beside the workload it explains (see perf/README.md).
"""

from __future__ import annotations

import time

from repro.apps import APPS
from repro.cluster.topology import ClusterSpec, DataCenter
from repro.dsps.runtime import CheckpointScheme, DSPSRuntime, RuntimeConfig
from repro.observability import Tracer
from repro.simulation.core import Environment
from repro.simulation.resources import Store
from repro.storage.shared import SharedStorage, StorageClient
from repro.telemetry import MetricRegistry


def _rate(ops: int, fn) -> float:
    start = time.perf_counter()
    fn()
    return ops / (time.perf_counter() - start)


def timeout_events_per_s(ops: int = 600_000, processes: int = 100) -> float:
    """Schedule, pop and resume: ``processes`` loops of bare timeouts."""
    env = Environment()

    def ticker(i: int):
        for _ in range(ops // processes):
            yield env.timeout(1.0 + i * 1e-3)

    for i in range(processes):
        env.process(ticker(i))
    return _rate(ops, env.run)


def store_ops_per_s(ops: int = 200_000) -> float:
    """Put/get pairs through one bounded ``Store``."""
    env = Environment()
    store = Store(env, capacity=16)

    def producer():
        for i in range(ops):
            yield store.put(i)

    def consumer():
        for _ in range(ops):
            yield store.get()

    env.process(producer())
    env.process(consumer())
    return _rate(ops, env.run)


def channel_msgs_per_s(ops: int = 50_000) -> float:
    """One producer -> consumer ``Channel`` between two nodes."""
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=2, spares=0, racks=1))
    chan = dc.connect(dc.workers[0], dc.workers[1], name="bench", capacity=16)

    def producer():
        for i in range(ops):
            yield chan.send(i, size=4096)

    def consumer():
        for _ in range(ops):
            yield chan.recv()

    dc.workers[0].spawn(producer())
    dc.workers[1].spawn(consumer())
    return _rate(ops, env.run)


def storage_write_ops_per_s(ops: int = 25_000) -> float:
    """Write-then-read round trips of one client against shared storage."""
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=1, spares=0, racks=1))
    client = StorageClient(dc.workers[0], SharedStorage(env, dc.storage_node))

    def writer():
        for i in range(ops):
            yield from client.write("bench", f"k{i % 64}", i, size=65536, bulk=True)
            yield from client.read("bench", f"k{i % 64}", bulk=True)

    dc.workers[0].spawn(writer())
    return _rate(ops, env.run)


def state_size_estimates_per_s(ops: int = 1_000_000) -> float:
    """``state_size()`` on the BCP operator holding the most state after
    ten simulated seconds (the ``+aa`` scheme samples it every period)."""
    env = Environment()
    runtime = DSPSRuntime(
        env, APPS["bcp"].build(seed=1), CheckpointScheme(), RuntimeConfig(seed=1)
    )
    runtime.start()
    env.run(until=10.0)
    operator = max(
        (op for hau in runtime.haus.values() for op in hau.operators),
        key=lambda op: op.state_size(),
    )

    def estimate():
        for _ in range(ops):
            operator.state_size()

    return _rate(ops, estimate)


def emit_per_s(ops: int = 200_000) -> float:
    """Bare ``Tracer.emit`` with one data field."""
    tracer = Tracer()

    def emit():
        for i in range(ops):
            tracer.emit("bench.event", t=float(i), subject="hau", round=i)

    return _rate(ops, emit)


def counter_inc_per_s(ops: int = 800_000) -> float:
    """Labelled counter lookup + increment, as instrumented layers do it."""
    registry = MetricRegistry()

    def inc():
        for _ in range(ops):
            registry.counter("ms_bench_total", direction="up").inc()

    return _rate(ops, inc)


# metric name -> bench, grouped by the workload whose traced pass runs it
GROUPS = {
    "dataflow_steady": {
        "simulation.micro_timeout_events_per_s": timeout_events_per_s,
        "simulation.micro_store_ops_per_s": store_ops_per_s,
        "cluster.micro_channel_msgs_per_s": channel_msgs_per_s,
    },
    "checkpoint_rounds": {
        "storage.micro_write_ops_per_s": storage_write_ops_per_s,
        "state.micro_size_estimates_per_s": state_size_estimates_per_s,
    },
    "observed_run": {
        "observability.micro_emit_per_s": emit_per_s,
        "telemetry.micro_counter_inc_per_s": counter_inc_per_s,
    },
}


def run_group(workload: str) -> dict[str, float]:
    return {name: bench() for name, bench in GROUPS.get(workload, {}).items()}


if __name__ == "__main__":
    for group in GROUPS:
        for name, value in run_group(group).items():
            print(f"{name:<44} {value:>14,.0f} 1/s")
