"""Tests for MS-src+ap+aa: profiling, alert mode, ICR-triggered rounds."""


from repro.cluster import ClusterSpec
from repro.core import MSSrcAPAA
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import make_chain_graph
from repro.harness import ExperimentConfig, run_experiment
from repro.simulation import Environment

# A pronounced sawtooth: 20 x 500 KB per window (5 s per cycle),
# collapsing at the batch boundary — the profile application-aware
# checkpointing exploits.  The cycle must be slow relative to the
# sampling interval or the turning-point detection lag eats the minimum
# (the paper's dynamics are minute-scale, §II-B2).
SAW = dict(source_count=2000, interval=0.25, window=40, tuple_size=500_000)


def deploy(scheme, seed=7, **graph_kw):
    g, holder = make_chain_graph(**graph_kw)
    env = Environment()
    app = StreamApplication(name="t", graph=g)
    rt = DSPSRuntime(
        env,
        app,
        scheme,
        RuntimeConfig(seed=seed, cluster=ClusterSpec(workers=6, spares=6, racks=2)),
    )
    rt.start()
    return env, rt, holder


def test_profiling_finds_dynamic_hau():
    scheme = MSSrcAPAA(checkpoint_period=10.0, profile_duration=8.0, sample_interval=0.2)
    env, rt, _ = deploy(scheme, **SAW)
    env.run(until=12.0)
    assert "agg" in scheme.dynamic_haus
    assert "mid" not in scheme.dynamic_haus  # stateless
    assert scheme.profile_result is not None
    assert scheme.profile_result.smax >= scheme.profile_result.smin


def test_rounds_fire_once_per_period():
    scheme = MSSrcAPAA(
        checkpoint_period=8.0, profile_duration=6.0, sample_interval=0.2, max_rounds=3
    )
    env, rt, _ = deploy(scheme, **SAW)
    env.run(until=40.0)
    logs = scheme.checkpoint_logs()
    assert len(logs) == 3
    assert all(log.complete for log in logs)
    assert len(scheme.decisions) == 3


def test_aa_checkpoints_smaller_state_than_fixed_time_ap():
    """The point of the technique: aa's checkpointed dynamic state should be
    well below the sawtooth average that random/fixed timing pays."""
    aa = MSSrcAPAA(
        checkpoint_period=8.0, profile_duration=6.0, sample_interval=0.2, max_rounds=2
    )
    env, _, _ = deploy(aa, **SAW)
    env.run(until=30.0)
    aa_sizes = [
        log.haus["agg"].state_bytes for log in aa.checkpoint_logs() if "agg" in log.haus
    ]
    assert aa_sizes
    # sawtooth peaks at 20 x 500 KB = 10 MB, average ~5 MB; aa should be
    # well under the average at the chosen instants
    assert min(aa_sizes) < 3_000_000


def test_deadline_fallback_when_state_never_low():
    """A flat (never-below-smax) profile must still checkpoint at period end."""
    flat = dict(source_count=2000, interval=0.05, window=100000, tuple_size=100_000)
    scheme = MSSrcAPAA(
        checkpoint_period=5.0, profile_duration=4.0, sample_interval=0.2, max_rounds=1
    )
    env, rt, _ = deploy(scheme, **flat)
    env.run(until=20.0)
    assert len(scheme.decisions) == 1
    assert scheme.decisions[0][1] == "deadline"
    assert scheme.checkpoint_logs()[0].complete


def test_icr_trigger_records_reason():
    scheme = MSSrcAPAA(
        checkpoint_period=10.0, profile_duration=8.0, sample_interval=0.2, max_rounds=2
    )
    env, rt, _ = deploy(scheme, **SAW)
    env.run(until=40.0)
    reasons = {reason for (_t, reason) in scheme.decisions}
    # with a strong sawtooth, at least one round should be ICR-triggered
    assert "icr" in reasons


def test_exactly_once_with_aa_recovery():
    def run(fail=None):
        scheme = MSSrcAPAA(
            checkpoint_period=6.0,
            profile_duration=4.0,
            sample_interval=0.2,
            max_rounds=2,
            enable_recovery=fail is not None,
        )
        env, rt, holder = deploy(scheme, **dict(SAW, source_count=400))
        if fail:
            def killer():
                yield env.timeout(fail[0])
                for h in fail[1]:
                    rt.haus[h].node.fail("injected")

            env.process(killer())
        env.run(until=60.0)
        return holder["sink"].payload_log, scheme

    clean_log, _ = run()
    failed_log, scheme = run(fail=(13.0, ["agg", "mid"]))
    assert len(scheme.recoveries) == 1
    assert failed_log == clean_log


def test_zero_checkpoints_starts_no_round():
    """Bug: ``from_config`` turned ``n_checkpoints = 0`` into "unlimited",
    so aa@0 checkpointed every period.  Zero means no rounds, as for every
    other scheme: the run is ms-src+ap's with none."""
    runs = {}
    for scheme in ("ms-src+ap", "ms-src+ap+aa"):
        cfg = ExperimentConfig(
            app="bcp", scheme=scheme, n_checkpoints=0, window=40.0, warmup=10.0,
            workers=8, spares=12, racks=2, seed=1,
        )
        res = run_experiment(cfg)
        assert res.scheme.record.logs == {}
        runs[scheme] = (res.throughput, res.latency, res.runtime.storage.bytes_written)
    assert runs["ms-src+ap+aa"] == runs["ms-src+ap"]
