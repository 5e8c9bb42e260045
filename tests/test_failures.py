"""Tests for the failure model (Table I) and the injector."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, DataCenter
from repro.failures import (
    ABE_CLUSTER,
    ClusterFailureModel,
    FailureInjector,
    FailurePlan,
    GOOGLE_DC,
    PlannedFailure,
)
from repro.failures.injector import sample_plan
from repro.simulation import Environment


def test_google_expected_afn100_matches_table1():
    model = ClusterFailureModel(GOOGLE_DC)
    exp = model.expected_afn100()
    assert exp["Network"] > 300.0  # the paper's ">300"
    assert 100.0 <= exp["Environment"] <= 150.0
    assert 80.0 <= exp["Ooops"] <= 120.0  # "~100"
    assert 1.7 <= exp["Disk"] <= 8.6
    assert 1.0 <= exp["Memory"] <= 1.6  # "1.3"


def test_network_row_reproduces_worked_example():
    """7640 network node-failures / 2400 nodes * 100 > 300 (§II-B1)."""
    net = [s for s in GOOGLE_DC.sources if s.category == "Network"]
    total = sum(s.expected_node_failures(GOOGLE_DC.nodes) for s in net)
    assert total == pytest.approx(7640.0)


def test_abe_lower_than_google():
    g = ClusterFailureModel(GOOGLE_DC).expected_afn100()
    a = ClusterFailureModel(ABE_CLUSTER).expected_afn100()
    assert a["Network"] < g["Network"]
    assert a["Ooops"] < g["Ooops"]
    assert 200 <= a["Network"] <= 300  # the paper's "~250"


def test_sampled_years_mean_close_to_expectation():
    """Single years are heavy-tailed (one extra power outage moves the
    Environment row by ~50); the multi-year mean must track expectation."""
    model = ClusterFailureModel(GOOGLE_DC, rng=np.random.default_rng(42))
    exp = model.expected_afn100()
    acc: dict[str, list[float]] = {}
    for _ in range(20):
        rows, stats = model.sample_year()
        assert stats["total_events"] > 0
        for cat, row in rows.items():
            acc.setdefault(cat, []).append(row.afn100)
    for cat, values in acc.items():
        mean = sum(values) / len(values)
        assert mean == pytest.approx(exp[cat], rel=0.35)


def test_burst_share_about_ten_percent():
    """'About 10% failures are part of a correlated burst' — as a share of
    all failure events including benign restarts [11]."""
    model = ClusterFailureModel(GOOGLE_DC, rng=np.random.default_rng(1))
    shares = []
    for _ in range(5):
        _rows, stats = model.sample_year()
        shares.append(stats["burst_event_share"])
    mean_share = sum(shares) / len(shares)
    assert 0.01 <= mean_share <= 0.25


def test_bursts_rack_correlated():
    model = ClusterFailureModel(GOOGLE_DC, rng=np.random.default_rng(2))
    rows, _ = model.sample_year()
    assert rows["Network"].burst_events > 0
    assert rows["Ooops"].burst_events == 0
    assert rows["Ooops"].single_events > 0


def test_table_rows_ranges():
    model = ClusterFailureModel(GOOGLE_DC, rng=np.random.default_rng(3))
    table = model.table_rows(samples=3)
    lo, hi = table["Network"]
    assert lo <= hi
    assert hi > 250


def test_sample_plan_deterministic():
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=20, spares=2, racks=4))
    horizon = 3.15e7  # ~one year
    p1 = sample_plan(np.random.default_rng(5), dc, horizon=horizon)
    p2 = sample_plan(np.random.default_rng(5), dc, horizon=horizon)
    assert p1.events == p2.events
    assert p1.single_count > 0
    assert p1.burst_count > 0


def test_injector_executes_plan():
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=8, spares=0, racks=2))
    plan = FailurePlan(
        events=[
            PlannedFailure(at=1.0, kind="node", target="w0"),
            PlannedFailure(at=2.0, kind="rack", target="rack1"),
        ]
    )
    inj = FailureInjector(env, dc, plan)
    inj.start()
    env.run(until=5.0)
    assert not dc.node("w0").alive
    rack1 = dc.racks[1]
    assert all(not n.alive for n in rack1.nodes)
    # rack0's other nodes (except w0) still alive
    assert any(n.alive for n in dc.racks[0].nodes)
    assert len(inj.injected) == 2


def test_shared_storage_is_outside_every_rack_failure_domain():
    """A rack0 burst used to fail-stop the storage node with the rack
    (it was built into ``racks[0]``) and every HAU that then wrote a
    checkpoint died of ``StorageError`` — unseen.  The paper's shared
    storage is a reliable service; losing it is a failure of its own."""
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=8, spares=2, racks=2))
    plan = FailurePlan(events=[PlannedFailure(at=1.0, kind="rack", target="rack0")])
    FailureInjector(env, dc, plan).start()
    env.run(until=2.0)
    assert all(not n.alive for n in dc.racks[0].nodes) and len(dc.racks[0].nodes) == 5
    assert dc.storage_node.alive
    assert dc.storage_node.rack == "rack0"  # still behind that rack's switch


def test_killing_the_storage_node_stops_the_run_naming_who_died_of_it():
    from repro.core import MSSrcAP
    from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
    from repro.dsps.testing import make_chain_graph
    from repro.simulation import SimulationError

    graph, _ = make_chain_graph()
    env = Environment()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=graph),
        MSSrcAP(checkpoint_times=[2.0], enable_recovery=True),
        RuntimeConfig(seed=7, cluster=ClusterSpec(workers=4, spares=3, racks=2)),
    )
    rt.start()
    plan = FailurePlan(events=[PlannedFailure(at=1.0, kind="node", target="storage")])
    FailureInjector(env, rt.dc, plan).start()
    with pytest.raises(SimulationError, match=r"process 'w\d+:\w+\.\w+' failed at t=.*storage node down"):
        env.run(until=20.0)
    assert not rt.dc.storage_node.alive


def test_injector_skips_dead_targets():
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=4, spares=0, racks=1))
    dc.node("w1").fail()
    plan = FailurePlan(events=[PlannedFailure(at=1.0, kind="node", target="w1")])
    inj = FailureInjector(env, dc, plan)
    inj.start()
    env.run(until=2.0)
    assert inj.injected == []


def test_injector_unknown_node_ignored():
    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=2, spares=0, racks=1))
    plan = FailurePlan(events=[PlannedFailure(at=0.5, kind="node", target="nope")])
    FailureInjector(env, dc, plan).start()
    env.run(until=1.0)  # must not raise


def test_unknown_failure_kind_is_rejected_when_the_plan_is_built():
    """The injector is a process nobody waits on, and the kernel drops
    such a process's exception: a mistyped kind used to end the injector
    silently, valid later events included — nothing injected, no error."""
    with pytest.raises(ValueError, match="node, rack, partition, straggler"):
        FailurePlan(
            events=[
                PlannedFailure(at=1.0, kind="nod", target="w0"),
                PlannedFailure(at=2.0, kind="node", target="w1"),
            ]
        )
