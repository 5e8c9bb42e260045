"""Tests for the baseline: input preservation, independent checkpoints,
1-safe recovery, and its failure under correlated faults."""

from repro.cluster import ClusterSpec
from repro.core import BaselineScheme
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import make_chain_graph
from repro.failures import FailureInjector, FailurePlan, PlannedFailure
from repro.harness.experiment import run_experiment
from repro.harness.figures import figure_config
from repro.simulation import Environment


def deploy(scheme, seed=7, workers=6, spares=6, **graph_kw):
    g, holder = make_chain_graph(**graph_kw)
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


def committed(scheme):
    """Every individual checkpoint the scheme finished, counter by counter."""
    return [
        bd
        for _counter, log in sorted(scheme.record.logs.items())
        for bd in log.haus.values()
        if bd.complete
    ]


def test_every_hau_checkpoints_periodically():
    scheme = BaselineScheme(checkpoint_period=2.0)
    env, rt, _ = deploy(scheme)
    env.run(until=10.0)
    hau_ids = {bd.hau_id for bd in committed(scheme)}
    assert hau_ids == set(rt.app.graph.haus)
    # roughly 10/2 = 5 rounds per HAU (first phase is random in [0, P))
    per_hau = [sum(1 for b in committed(scheme) if b.hau_id == h) for h in hau_ids]
    assert all(3 <= n <= 6 for n in per_hau)


def test_first_checkpoint_phases_are_spread():
    scheme = BaselineScheme(checkpoint_period=5.0)
    env, rt, _ = deploy(scheme)
    env.run(until=6.0)
    firsts = {}
    for bd in committed(scheme):
        firsts.setdefault(bd.hau_id, bd.write_start_at)
    assert len(set(round(t, 3) for t in firsts.values())) > 1


def test_input_preservation_retains_at_every_hau():
    scheme = BaselineScheme(checkpoint_period=None)  # no checkpoints, no acks
    env, rt, _ = deploy(scheme)
    env.run(until=5.0)
    # every non-sink HAU has retained output
    for hau_id in ("src", "agg", "mid"):
        assert scheme.preserver.retained_bytes(hau_id) > 0


def test_ack_discards_upstream_retention():
    scheme = BaselineScheme(checkpoint_period=1.0)
    env, rt, _ = deploy(scheme)
    env.run(until=12.0)
    # after many rounds, retention should be bounded (acked away), i.e.
    # much less than everything ever emitted
    total_emitted_bytes = sum(
        ch.bytes_delivered for ch in rt.dc.channels() if "->" in ch.name and "ctl" not in ch.name
    )
    retained = sum(scheme.preserver.retained_bytes(h) for h in rt.haus)
    assert retained < total_emitted_bytes


def test_buffer_spills_to_local_disk():
    scheme = BaselineScheme(checkpoint_period=None, buffer_bytes=200_000)
    env, rt, _ = deploy(scheme, tuple_size=50_000)
    env.run(until=5.0)
    # more is retained than the buffer holds: the rest went to the local disk
    assert scheme.preserver.retained_bytes("src") > 200_000
    assert rt.haus["src"].node.disk.bytes_moved > 0


def run_with_failure(fail_time, victims, until=40.0, seed=7, **graph_kw):
    scheme = BaselineScheme(checkpoint_period=1.0, enable_recovery=True)
    env, rt, holder = deploy(scheme, seed=seed, **graph_kw)

    def killer():
        yield env.timeout(fail_time)
        for hau_id in victims:
            rt.haus[hau_id].node.fail("injected")

    env.process(killer())
    env.run(until=until)
    return rt, holder["sink"].payload_log, scheme


def test_single_failure_recovers_exactly_once():
    clean_scheme = BaselineScheme(checkpoint_period=1.0)
    env, clean_rt, clean_holder = deploy(clean_scheme)
    env.run(until=40.0)
    clean_log = clean_holder["sink"].payload_log

    rt, failed_log, scheme = run_with_failure(2.3, ["mid"])
    assert scheme.recovered and scheme.recovered[0][1] == "mid"
    assert not scheme.unrecoverable
    assert failed_log == clean_log


def test_single_failure_restarts_on_spare():
    rt, _, scheme = run_with_failure(2.3, ["agg"])
    assert rt.haus["agg"].node.alive
    assert rt.haus["agg"].node.node_id.startswith("spare")


def test_correlated_failure_is_unrecoverable():
    """The baseline's 1-safety limit: when an HAU and its upstream die
    together, the upstream's retained buffer is gone."""
    rt, _, scheme = run_with_failure(2.3, ["agg", "mid"])
    assert scheme.unrecoverable
    lost = {h for (_t, h) in scheme.unrecoverable}
    assert "mid" in lost


def test_source_failure_unrecoverable_without_stable_preservation():
    """A dead source in the baseline loses its in-memory/local-disk buffer;
    the baseline can restart it from its checkpoint but tuples retained
    only on the dead node are gone. Our model restarts it (sources keep
    their own retention), so here we just assert the recovery completes."""
    rt, failed_log, scheme = run_with_failure(2.3, ["src"])
    # src has no upstream, so single-failure recovery applies
    assert scheme.recovered and scheme.recovered[0][1] == "src"


def test_second_failure_hits_the_spare_hosting_a_recovered_hau():
    """A claimed spare stays a by-id failure target: kill w3, let the
    baseline restart its HAU on spare0, then kill spare0.  (claim_spare
    used to drop the node from the data center, so the injector's lookup
    raised KeyError and the second failure was silently skipped.)"""
    scheme = BaselineScheme(checkpoint_period=1.0, enable_recovery=True)
    env, rt, _ = deploy(scheme)
    victim = next(h for h, node in rt.placement.items() if node.node_id == "w3")
    injector = FailureInjector(
        env,
        rt.dc,
        FailurePlan(
            events=[
                PlannedFailure(at=2.3, kind="node", target="w3"),
                PlannedFailure(at=12.0, kind="node", target="spare0"),
            ]
        ),
    )
    injector.start()
    env.run(until=11.9)
    assert scheme.recovered == [(scheme.recovered[0][0], victim)]
    assert rt.haus[victim].node is rt.dc.node("spare0")
    env.run(until=40.0)
    assert [e.target for e in injector.injected] == ["w3", "spare0"]
    assert not rt.dc.node("spare0").alive
    # the HAU is dealt with a second time: restarted again or given up on
    outcomes = [h for (_t, h) in scheme.recovered + scheme.unrecoverable]
    assert outcomes == [victim, victim]
    if len(scheme.recovered) == 2:
        assert rt.haus[victim].node.alive


def test_an_ack_keeps_the_other_edges_retained_tuples():
    """Input preservation retains a tuple until *its own* downstream has
    checkpointed past it.  On BCP's fast cell the HAUs with two or more
    out-edges are the ones a per-edge ack can wrong: every tuple a HAU
    sent on edge ``e`` after ``e``'s downstream last checkpointed must
    still be retained (the one still in its preservation hook excepted),
    or a 1-safe restart of that downstream would silently miss it."""
    result = run_experiment(figure_config("bcp", "baseline", 3, 150, 30))
    rt, scheme = result.runtime, result.scheme
    fan_out = sorted(h for h, hau in rt.haus.items() if len(hau.out_edges) >= 2)
    assert fan_out
    lost = {}
    for hau_id in fan_out:
        hau = rt.haus[hau_id]
        held = scheme.preserver._held[hau_id]
        retained = {(eid, tup.seq) for eid, tup in held.mem + held.disk}
        for edge in hau.out_edges:
            acked = 0
            down = scheme.record.last_commit.get(edge.dst)
            if down is not None:
                payload = rt.storage.lookup("ckpt", edge.dst, down.version).value
                acked = payload["in_seq"].get(rt.app.graph.in_edge_index(edge), 0)
            sent = hau._out_seq[edge.edge_id]
            missing = [s for s in range(acked + 1, sent) if (edge.edge_id, s) not in retained]
            if missing:
                lost[edge.edge_id] = len(missing)
    assert lost == {}
