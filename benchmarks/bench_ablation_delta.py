"""A4 ablation: delta-checkpointing composed with MS-src+ap (paper §V).

"We believe that distributed checkpointing and delta-checkpointing
complement Meteor Shower's application-aware checkpointing and could be
applied jointly."  This bench quantifies the composition on BCP:

* common case: bytes shipped per checkpoint round (full vs delta);
* recovery: bytes read back (one object vs the full+delta chain).
"""

from repro.core import DeltaPolicy
from repro.failures.injector import FailureInjector, FailurePlan, PlannedFailure
from repro.harness import format_table
from repro.harness.figures import default_app_params


def run_variant(delta: bool, scale):
    from repro.apps import APPS
    from repro.cluster.topology import ClusterSpec
    from repro.core import MSSrcAP
    from repro.dsps.runtime import DSPSRuntime, RuntimeConfig
    from repro.simulation import Environment

    params = default_app_params("bcp", scale.window)
    times = [scale.warmup + (k + 0.5) * scale.window / 4 for k in range(4)]
    scheme = MSSrcAP(
        checkpoint_times=times,
        delta=DeltaPolicy(full_every=4) if delta else None,
        enable_recovery=True,
    )
    env = Environment()
    app = APPS["bcp"].build(seed=1, **params)
    rt = DSPSRuntime(
        env, app, scheme,
        RuntimeConfig(seed=1, cluster=ClusterSpec(workers=55, spares=60, racks=4),
                      channel_capacity=8, inbox_capacity=16),
    )
    rt.start()

    fail_at = scale.warmup + 0.95 * scale.window  # after several rounds
    # every node hosting an HAU fails at once (the paper's worst case)
    hosts = sorted({h.node.node_id for h in rt.haus.values()})
    kills = [PlannedFailure(fail_at, "node", node_id, cause="ablation") for node_id in hosts]
    FailureInjector(env, rt.dc, FailurePlan(kills)).start()
    env.run(until=scale.warmup + scale.window + 40.0)

    per_round_bytes = [
        sum(bd.state_bytes for bd in log.haus.values())
        for log in scheme.checkpoint_logs()
        if log.complete
    ]
    rec = scheme.recoveries[0] if scheme.recoveries else None
    return per_round_bytes, rec


def test_ablation_delta(benchmark, scale):
    def both():
        return {"full": run_variant(False, scale), "delta": run_variant(True, scale)}

    results = benchmark.pedantic(both, rounds=1, iterations=1)
    rows = []
    for name, (rounds, rec) in results.items():
        shipped = sum(rounds) / 1e6 if rounds else float("nan")
        read = rec.bytes_read / 1e6 if rec else float("nan")
        total = rec.total if rec else float("nan")
        rows.append([name, len(rounds), f"{shipped:.1f}", f"{read:.1f}", f"{total:.2f}"])
    print("\n" + format_table(
        ["variant", "rounds done", "MB shipped (all rounds)", "MB read at recovery", "recovery (s)"],
        rows, title="A4 — delta-checkpointing composed with MS-src+ap (BCP)",
    ))

    full_rounds, full_rec = results["full"]
    delta_rounds, delta_rec = results["delta"]
    assert full_rec is not None and delta_rec is not None
    if len(full_rounds) >= 2 and len(delta_rounds) >= 2:
        # the common case ships less under deltas...
        assert sum(delta_rounds) < sum(full_rounds)
        # ...and the recovery reads at least as much (the chain)
        assert delta_rec.bytes_read >= 0.8 * full_rec.bytes_read
