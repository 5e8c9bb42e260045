"""Tests for the delta-checkpointing extension (repro.core.delta)."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import MSSrcAP
from repro.core.delta import DeltaPolicy, DeltaTracker
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import make_chain_graph
from repro.simulation import Environment


# --- DeltaTracker unit tests -----------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        DeltaPolicy(full_every=0)


def test_first_checkpoint_is_full():
    tr = DeltaTracker(DeltaPolicy(full_every=4))
    billed, is_full = tr.billed_size("h", 1000)
    assert (billed, is_full) == (1000, True)


def test_growth_bills_only_delta():
    tr = DeltaTracker(DeltaPolicy(full_every=10, min_delta_bytes=1))
    tr.record("h", 1, 0, full_size=1000, billed=1000, is_full=True)
    billed, is_full = tr.billed_size("h", 1500)
    assert (billed, is_full) == (500, False)


def test_shrink_forces_full():
    tr = DeltaTracker(DeltaPolicy(full_every=10))
    tr.record("h", 1, 0, full_size=1000, billed=1000, is_full=True)
    billed, is_full = tr.billed_size("h", 200)
    assert is_full and billed == 200


def test_cadence_forces_full():
    tr = DeltaTracker(DeltaPolicy(full_every=2, min_delta_bytes=1))
    tr.record("h", 1, 0, 100, 100, True)
    assert tr.billed_size("h", 150)[1] is False
    tr.record("h", 2, 1, 150, 50, False)
    assert tr.billed_size("h", 200)[1] is True  # 2nd after full -> full


def test_min_delta_floor():
    tr = DeltaTracker(DeltaPolicy(full_every=10, min_delta_bytes=4096))
    tr.record("h", 1, 0, 10_000, 10_000, True)
    billed, _ = tr.billed_size("h", 10_001)
    assert billed == 4096


def test_read_chain_and_protection():
    tr = DeltaTracker(DeltaPolicy(full_every=10, min_delta_bytes=1))
    tr.record("h", 1, 10, 100, 100, True)
    tr.record("h", 2, 11, 150, 50, False)
    tr.record("h", 3, 12, 180, 30, False)
    assert tr.read_chain("h", through_round=2) == [(1, 10, 100), (2, 11, 50)]
    assert tr.read_chain("h", through_round=3) == [(1, 10, 100), (2, 11, 50), (3, 12, 30)]
    assert tr.protected_versions("h") == {10, 11, 12}
    assert tr.chain_read_bytes("h", 3) == 180
    # a new full resets the chain
    tr.record("h", 4, 13, 60, 60, True)
    assert tr.read_chain("h", 4) == [(4, 13, 60)]
    assert tr.protected_versions("h") == {13}


def test_unknown_hau_chain_empty():
    tr = DeltaTracker(DeltaPolicy())
    assert tr.read_chain("ghost", 5) == []
    assert tr.protected_versions("ghost") == set()


# --- integration with MS-src+ap -----------------------------------------------------


def deploy(scheme, seed=7, **graph_kw):
    g, holder = make_chain_graph(**graph_kw)
    env = Environment()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=g),
        scheme,
        RuntimeConfig(seed=seed, cluster=ClusterSpec(workers=4, spares=6, racks=2)),
    )
    rt.start()
    return env, rt, holder


GROWY = dict(source_count=400, interval=0.02, window=100000, tuple_size=200_000)


def test_delta_rounds_bill_less_than_full():
    full = MSSrcAP(checkpoint_times=[1.0, 2.0, 3.0])
    env, rt, _ = deploy(full, **GROWY)
    env.run(until=20.0)
    full_bytes = [log.haus["agg"].state_bytes for log in full.checkpoint_logs()]

    delta = MSSrcAP(checkpoint_times=[1.0, 2.0, 3.0], delta=DeltaPolicy(full_every=4))
    env, rt, _ = deploy(delta, **GROWY)
    env.run(until=20.0)
    delta_bytes = [log.haus["agg"].state_bytes for log in delta.checkpoint_logs()]

    assert delta_bytes[0] == full_bytes[0]  # first is full either way
    assert delta_bytes[1] < full_bytes[1]  # subsequent rounds ship deltas
    assert delta_bytes[2] < full_bytes[2]


def test_delta_recovery_reads_whole_chain_and_is_exact():
    def run(delta, fail):
        scheme = MSSrcAP(
            checkpoint_times=[1.0, 2.0, 3.0],
            delta=DeltaPolicy(full_every=4) if delta else None,
            enable_recovery=fail,
        )
        env, rt, holder = deploy(scheme, **GROWY)
        if fail:

            def killer():
                yield env.timeout(3.6)
                rt.haus["agg"].node.fail("t")

            env.process(killer())
        env.run(until=30.0)
        return holder["sink"].payload_log, scheme

    clean_log, _ = run(delta=True, fail=False)
    failed_log, scheme = run(delta=True, fail=True)
    assert scheme.recoveries
    assert failed_log == clean_log  # exactly-once holds under deltas
    # the recovery read the full + delta chain, not just one object
    cut = scheme.record.last_complete_round()
    chain = scheme.recovery_read_plan("agg", cut_round=cut[0], cut_version=cut[1]["agg"])
    assert len(chain) >= 1


def test_delta_gc_protects_chain():
    scheme = MSSrcAP(checkpoint_times=[1.0, 2.0, 3.0], delta=DeltaPolicy(full_every=4))
    env, rt, _ = deploy(scheme, **GROWY)
    env.run(until=20.0)
    # after three completed rounds, the chain (full + 2 deltas) must all
    # still be readable
    cut = scheme.record.last_complete_round()
    assert cut[0] == 3
    for version in scheme.recovery_read_plan("agg", cut_round=3, cut_version=cut[1]["agg"]):
        assert rt.storage.lookup("ckpt", "agg", version) is not None
