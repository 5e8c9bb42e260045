"""Construction-cost guard: counts, not seconds.

Topology and runtime construction must stay linear in HAUs + edges and
lean in what it allocates (DESIGN.md, "Construction cost").  Host time is
too noisy for tier-1, so this pins what *causes* the time: gc-tracked
objects per HAU, whole-edge-list scans, ``EdgeSpec`` comparisons, and
the collector pause restoring the state it found.
"""

import gc
import sys

import pytest

from repro.apps import synth
from repro.cluster import ClusterSpec
from repro.dsps import DSPSRuntime, RuntimeConfig
from repro.dsps.graph import EdgeSpec, QueryGraph
from repro.dsps.hau import HAURuntime
from repro.dsps.runtime import CheckpointScheme
from repro.simulation import Environment
from repro.simulation.core import paused_gc

#: gc-tracked objects ``build()`` + ``start()`` may create per HAU of the
#: aligned chain: what this tree achieves (26.3) + 10 %.  It was 96 before
#: the object diet, 66 while every HAU got an eager control star and RNG
#: stream, and 35.8 while every channel had a pump process and every
#: in-edge a receiver.  Spend it knowingly — see DESIGN.md for the ledger.
OBJECTS_PER_HAU_BUDGET = 29


def chain_topology(replicas):
    """The scaling bench's aligned chain S -> W -> A -> K."""
    stage = {"replicas": replicas, "size": 4096}
    return {
        "stages": [
            {"name": "S", "kind": "source", "count": 6, "interval": 0.005, **stage},
            {"name": "W", "kind": "map", **stage},
            {"name": "A", "kind": "map", **stage},
            {"name": "K", "kind": "sink", "replicas": replicas},
        ],
        "edges": [
            {"src": a, "dst": b, "pairing": "aligned"}
            for a, b in (("S", "W"), ("W", "A"), ("A", "K"))
        ],
    }


def deploy(replicas):
    """Build and start the chain; returns (runtime, objects created per HAU).

    The baseline is taken from a fully collected heap: one ``collect()``
    can leave an earlier test's generators half-finalised, and their
    death during this build would read as objects the build never made
    (≈ 2 per HAU — invisible at 66, over the 5 % slack at 36).
    """
    app = synth.build(seed=1, topology=chain_topology(replicas))
    runtime = DSPSRuntime(
        Environment(),
        app,
        CheckpointScheme(),
        RuntimeConfig(cluster=ClusterSpec(workers=replicas // 4, spares=2, racks=4)),
    )
    while gc.collect():
        pass
    before = len(gc.get_objects())
    runtime.build()
    runtime.start()
    gc.collect()
    created = len(gc.get_objects()) - before
    return runtime, created / len(app.graph)


def test_objects_per_hau_within_budget_and_flat_across_sizes():
    _, small = deploy(200)
    _, large = deploy(400)
    assert abs(large - small) <= 0.05 * small, (small, large)
    # CPython < 3.11 materialises a dict per instance; the budget is
    # stated for the lazy-__dict__ interpreters the benchmark runs on.
    if sys.version_info >= (3, 11):
        assert small <= OBJECTS_PER_HAU_BUDGET, small
        assert large <= OBJECTS_PER_HAU_BUDGET, large


class _CountingEdges(list):
    """An edge list that counts whole-list traversals."""

    scans = 0

    def __iter__(self):
        _CountingEdges.scans += 1
        return super().__iter__()


@pytest.mark.parametrize("replicas", [50, 100])
def test_build_scans_the_edge_list_a_constant_number_of_times(replicas, monkeypatch):
    graph_init = QueryGraph.__init__
    comparisons = []

    def counting_init(self):
        graph_init(self)
        self.edges = _CountingEdges()

    monkeypatch.setattr(QueryGraph, "__init__", counting_init)
    monkeypatch.setattr(
        EdgeSpec, "__eq__", lambda self, other: comparisons.append(1) or self is other
    )
    monkeypatch.setattr(_CountingEdges, "scans", 0)
    runtime, _ = deploy(replicas)
    assert len(runtime.data_channels) == 3 * replicas
    # validate() and data-channel wiring walk the list once each, whatever
    # the size; nothing looks an edge up by scanning or by dataclass __eq__
    assert _CountingEdges.scans <= 3
    assert not comparisons


def test_only_what_runs_is_built():
    """Scheme ``none`` never commands a HAU and no bundled operator draws
    from ``ctx.rng``: no control link, no listener, no RNG stream.  The
    first broadcast then binds exactly one link per HAU."""
    runtime, _ = deploy(8)
    graph = runtime.app.graph
    assert len(list(runtime.dc.channels())) == len(graph.edges)
    assert not runtime.control_down and not runtime._control_procs
    assert not runtime.rngs._streams

    runtime.broadcast_control(("noop",))
    assert sorted(runtime.control_down) == sorted(runtime.haus)
    assert sorted(runtime._control_procs) == sorted(runtime.haus)
    assert len(list(runtime.dc.channels())) == len(graph.edges) + len(runtime.haus)
    runtime.broadcast_control(("noop",))  # get-or-create: nothing new
    assert len(list(runtime.dc.channels())) == len(graph.edges) + len(runtime.haus)


def test_paused_gc_restores_the_state_it_found():
    assert gc.isenabled()
    with paused_gc():
        assert not gc.isenabled()
        with paused_gc():  # nesting: the inner exit must not re-enable
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()

    with pytest.raises(RuntimeError), paused_gc():
        raise RuntimeError("boom")
    assert gc.isenabled()

    gc.disable()
    try:
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the caller's choice survives
    finally:
        gc.enable()


def test_construction_runs_with_the_collector_paused(monkeypatch):
    """One call inside each paused phase: synth.build (graph validation),
    DSPSRuntime.build (operator factories) and .start (HAU start)."""
    seen = {}

    def spy(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            seen[f"{cls.__name__}.{name}"] = gc.isenabled()
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    spy(QueryGraph, "validate")
    spy(synth.SynthWorker, "__init__")
    spy(HAURuntime, "start")
    deploy(4)
    assert seen == {
        "QueryGraph.validate": False,
        "SynthWorker.__init__": False,
        "HAURuntime.start": False,
    }
    assert gc.isenabled()
