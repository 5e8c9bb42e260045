"""Focused tests for recovery internals: spare packing, cut selection,
storage accounting, and repeated failures."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import MSSrc, MSSrcAP
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import make_chain_graph
from repro.simulation import Environment, SimulationError


def deploy(scheme, workers=4, spares=3, seed=7, **graph_kw):
    g, holder = make_chain_graph(**graph_kw)
    env = Environment()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=g),
        scheme,
        RuntimeConfig(seed=seed, cluster=ClusterSpec(workers=workers, spares=spares, racks=2)),
    )
    rt.start()
    return env, rt, holder


def kill_at(env, rt, when, victims):
    def killer():
        yield env.timeout(when)
        for h in victims:
            rt.haus[h].node.fail("test")

    env.process(killer())


def test_spares_packed_one_per_dead_node():
    """4 HAUs on 2 workers; killing both must claim only 2 spares."""
    scheme = MSSrcAP(checkpoint_times=[1.0], enable_recovery=True)
    env, rt, _ = deploy(scheme, workers=2, spares=3)
    kill_at(env, rt, 2.0, ["src", "agg", "mid", "sink"])
    env.run(until=20.0)
    assert len(scheme.recoveries) == 1
    assert rt.dc.spares_available() == 1  # 3 - 2 claimed
    # the original packing density is preserved: 2 HAUs per node
    nodes = {}
    for hau_id, node in rt.placement.items():
        nodes.setdefault(node.node_id, []).append(hau_id)
    assert all(len(v) == 2 for v in nodes.values())


def test_recovery_uses_latest_complete_cut():
    scheme = MSSrcAP(checkpoint_times=[1.0, 2.5], enable_recovery=True)
    env, rt, _ = deploy(scheme)
    kill_at(env, rt, 5.0, ["agg"])
    env.run(until=25.0)
    cut = scheme.record.last_complete_round()
    assert cut is not None and cut[0] == 2


def test_recovery_without_any_checkpoint_replays_everything():
    scheme = MSSrc(checkpoint_times=[], enable_recovery=True)
    env, rt, holder = deploy(scheme)
    kill_at(env, rt, 1.0, ["agg", "mid"])
    env.run(until=30.0)
    assert len(scheme.recoveries) == 1
    rec = scheme.recoveries[0]
    assert rec.bytes_read == 0  # no checkpoints existed
    # and yet everything was reprocessed from preserved source tuples
    assert holder["sink"].received_count > 0


def test_two_sequential_failures_both_recovered():
    scheme = MSSrcAP(checkpoint_times=[1.0, 4.0], enable_recovery=True)
    env, rt, holder = deploy(scheme, spares=6)
    kill_at(env, rt, 2.0, ["mid"])
    kill_at(env, rt, 8.0, ["agg"])
    env.run(until=40.0)
    assert len(scheme.recoveries) == 2
    assert all(h.node.alive for h in rt.haus.values())


def test_exactly_once_across_two_failures():
    def run(fails):
        scheme = MSSrcAP(checkpoint_times=[1.0, 4.0], enable_recovery=bool(fails))
        env, rt, holder = deploy(scheme, spares=6)
        for when, victims in fails:
            kill_at(env, rt, when, victims)
        env.run(until=40.0)
        return holder["sink"].payload_log

    clean = run([])
    twice = run([(2.0, ["mid"]), (8.0, ["agg"])])
    assert twice == clean


def test_recovery_breakdown_phases_ordered():
    scheme = MSSrcAP(checkpoint_times=[1.0], enable_recovery=True)
    env, rt, _ = deploy(
        scheme, source_count=120, interval=0.03, window=10, tuple_size=500_000
    )
    kill_at(env, rt, 3.0, ["agg", "mid", "sink"])
    env.run(until=30.0)
    rec = scheme.recoveries[0]
    assert rec.reload_seconds > 0
    assert rec.disk_io_seconds > 0
    assert rec.reconnect_seconds > 0
    assert rec.bytes_read > 0
    # total is the four phases only (source replay excluded, §IV-C)
    phases = rec.reload_seconds + rec.disk_io_seconds + rec.deserialize_seconds + rec.reconnect_seconds
    assert rec.total == pytest.approx(phases, rel=0.25)


def test_recovery_after_spare_exhaustion_raises_visibly():
    scheme = MSSrcAP(checkpoint_times=[1.0], enable_recovery=True)
    env, rt, _ = deploy(scheme, workers=2, spares=1)
    for spare in rt.dc.spares:
        spare.fail("pre-dead")
    kill_at(env, rt, 2.0, ["src", "agg", "mid", "sink"])
    # the watcher re-raises, nobody waits on the watcher: the run stops
    with pytest.raises(SimulationError, match=r"'storage:ms-src\+ap\.watch' failed at t=.*no healthy spare"):
        env.run(until=10.0)
    assert not scheme.recoveries and env.now == 2.0
    # the rollback it began is on record, cut short
    assert [r.complete for r in scheme.record.recoveries] == [False]
