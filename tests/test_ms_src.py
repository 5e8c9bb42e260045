"""Tests for MS-src: token cascade, sync checkpoints, global recovery."""


from repro.cluster import ClusterSpec
from repro.core import MSSrc
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import make_chain_graph, make_diamond_graph
from repro.simulation import Environment


def deploy(graph_fn, scheme, seed=7, workers=6, spares=6, **graph_kw):
    g, holder = graph_fn(**graph_kw)
    env = Environment()
    app = StreamApplication(name="t", graph=g)
    rt = DSPSRuntime(
        env,
        app,
        scheme,
        RuntimeConfig(seed=seed, cluster=ClusterSpec(workers=workers, spares=spares, racks=2)),
    )
    rt.start()
    return env, rt, holder


def test_round_completes_all_haus_checkpoint():
    scheme = MSSrc(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    logs = scheme.checkpoint_logs()
    assert len(logs) == 1
    log = logs[0]
    assert log.complete
    assert set(log.haus) == set(rt.app.graph.haus)
    # every HAU wrote its state to shared storage
    assert rt.storage.keys("ckpt") == sorted(rt.app.graph.haus)


def test_checkpoint_is_consistent_cut():
    scheme = MSSrc(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    cut = scheme.record.last_complete_round()
    assert cut is not None
    round_id, versions = cut
    assert round_id == 1
    # the source's checkpointed emitted_count is its preservation marker:
    # the round's GC discarded exactly the tuples up to it
    src_payload = rt.storage.lookup("ckpt", "src", versions["src"]).value
    marker = src_payload["operators"][0]["emitted_count"]
    remaining = scheme.preserver.replay_tuples("src", 0)
    assert remaining and remaining[0].seq == marker + 1


def test_tokens_cascade_in_topological_order():
    scheme = MSSrc(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    log = scheme.checkpoint_logs()[0]
    ends = {h: bd.write_end_at for h, bd in log.haus.items()}
    assert ends["src"] < ends["agg"] < ends["mid"] < ends["sink"]


def test_diamond_waits_for_both_tokens():
    scheme = MSSrc(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_diamond_graph, scheme)
    env.run(until=15.0)
    log = scheme.checkpoint_logs()[0]
    assert log.complete
    join_bd = log.haus["join"]
    # the join cannot checkpoint before both upstream branches have
    assert join_bd.write_start_at >= log.haus["a"].write_end_at
    assert join_bd.write_start_at >= log.haus["b"].write_end_at


def test_source_preservation_only_sources_preserve():
    scheme = MSSrc(checkpoint_times=[2.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=6.0)
    assert rt.storage.written_by_namespace["preserve"] > 0
    assert rt.storage.keys("preserve") == ["src"]


def test_gc_discards_preserved_prefix_after_round():
    scheme = MSSrc(checkpoint_times=[2.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    version = scheme.record.logs[1].haus["src"].version
    marker = rt.storage.lookup("ckpt", "src", version).value["operators"][0]["emitted_count"]
    remaining = scheme.preserver.replay_tuples("src", 0)
    assert all(t.seq > marker for t in remaining)


def test_multiple_rounds_supersede():
    scheme = MSSrc(checkpoint_times=[1.0, 2.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    cut = scheme.record.last_complete_round()
    assert cut[0] == 2
    # superseded round-1 checkpoint versions were garbage collected
    for hau_id, version in cut[1].items():
        versions = rt.storage._objects[("ckpt", hau_id)]
        assert all(o.version >= version for o in versions)


def run_to_end(graph_fn, scheme_factory, fail=None, until=40.0, seed=7, **kw):
    scheme = scheme_factory()
    env, rt, holder = deploy(graph_fn, scheme, seed=seed, **kw)
    if fail is not None:
        fail_time, victims = fail

        def killer():
            yield env.timeout(fail_time)
            for hau_id in victims:
                rt.haus[hau_id].node.fail("injected")

        env.process(killer())
    env.run(until=until)
    return rt, holder["sink"].payload_log, scheme


def test_exactly_once_single_failure_chain():
    clean_rt, clean_log, _ = run_to_end(make_chain_graph, lambda: MSSrc(checkpoint_times=[1.0]))
    _, failed_log, scheme = run_to_end(
        make_chain_graph,
        lambda: MSSrc(checkpoint_times=[1.0], enable_recovery=True),
        fail=(1.8, ["mid"]),
    )
    assert len(scheme.recoveries) == 1
    assert failed_log == clean_log


def test_exactly_once_failure_before_any_checkpoint():
    clean_rt, clean_log, _ = run_to_end(make_chain_graph, lambda: MSSrc(checkpoint_times=[]))
    _, failed_log, scheme = run_to_end(
        make_chain_graph,
        lambda: MSSrc(checkpoint_times=[], enable_recovery=True),
        fail=(0.9, ["agg"]),
    )
    assert len(scheme.recoveries) == 1
    assert failed_log == clean_log


def test_exactly_once_correlated_burst_failure():
    """The headline capability: multiple simultaneous node failures.

    With two independent source streams merging at a join, recovery may
    legitimately change the cross-stream interleaving; the guarantee is
    "no tuple missed or processed twice" (§III-A) plus per-stream order.
    """
    clean_rt, clean_log, _ = run_to_end(
        make_diamond_graph, lambda: MSSrc(checkpoint_times=[1.5]), until=60.0
    )
    _, failed_log, scheme = run_to_end(
        make_diamond_graph,
        lambda: MSSrc(checkpoint_times=[1.5], enable_recovery=True),
        fail=(2.5, ["a", "b", "join"]),
        until=60.0,
    )
    assert len(scheme.recoveries) == 1
    assert sorted(failed_log) == sorted(clean_log)  # no loss, no duplicates
    for port in (0, 1):  # per-stream order preserved
        clean_stream = [v for (p, v) in clean_log if p == port]
        failed_stream = [v for (p, v) in failed_log if p == port]
        assert failed_stream == clean_stream


def test_exactly_once_source_failure():
    clean_rt, clean_log, _ = run_to_end(make_chain_graph, lambda: MSSrc(checkpoint_times=[1.0]))
    _, failed_log, scheme = run_to_end(
        make_chain_graph,
        lambda: MSSrc(checkpoint_times=[1.0], enable_recovery=True),
        fail=(2.2, ["src"]),
    )
    assert failed_log == clean_log


def test_recovery_breakdown_recorded():
    _, _, scheme = run_to_end(
        make_chain_graph,
        lambda: MSSrc(checkpoint_times=[1.0], enable_recovery=True),
        fail=(2.0, ["agg", "mid"]),
    )
    rec = scheme.recoveries[0]
    assert rec.total > 0
    assert rec.disk_io_seconds > 0
    assert rec.reconnect_seconds > 0
    assert rec.haus_recovered == 4


def test_failed_haus_restart_on_spares():
    _, _, scheme = run_to_end(
        make_chain_graph,
        lambda: MSSrc(checkpoint_times=[1.0], enable_recovery=True),
        fail=(2.0, ["mid"]),
    )
    rt = scheme.runtime
    assert rt.haus["mid"].node.alive
    assert rt.haus["mid"].node.node_id.startswith("spare")


def test_sync_checkpoint_takes_visible_time_for_big_state():
    """An MS-src checkpoint of a ~100 MB HAU must take measurable time."""
    scheme = MSSrc(checkpoint_times=[1.0])
    g, _holder = make_chain_graph(
        source_count=200, interval=0.02, window=50, tuple_size=2_000_000
    )
    env = Environment()
    app = StreamApplication(name="t", graph=g)
    rt = DSPSRuntime(
        env,
        app,
        scheme,
        RuntimeConfig(seed=3, cluster=ClusterSpec(workers=4, spares=1, racks=1)),
    )
    rt.start()
    env.run(until=30.0)
    log = scheme.checkpoint_logs()[0]
    assert log.complete
    agg = log.haus["agg"]
    assert agg.total > 0.05
    assert agg.disk_io > 0.0
