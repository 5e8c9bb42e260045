"""A3 ablation: surviving correlated rack-scale bursts.

The paper's motivation: 1-safe (baseline) schemes cannot recover when an
HAU and its upstream neighbour fail together, because the upstream's
retained tuples die with it; Meteor Shower's global rollback plus
source preservation recovers from arbitrary burst sizes.

This bench kills one whole rack (~14 of 55 worker nodes) under both the
baseline and MS-src+ap and reports the outcome.
"""

from repro.failures.injector import FailurePlan, PlannedFailure
from repro.harness import format_table
from repro.harness.experiment import run_experiment
from repro.harness.figures import figure_config


def run_burst(scheme: str, scale):
    cfg = figure_config("bcp", scheme, 2, scale.window, scale.warmup, enable_recovery=True)
    # victims: every worker in rack 1 (cluster is racks=4, round-robin)
    fail_at = scale.warmup + 0.55 * scale.window
    burst = FailurePlan([PlannedFailure(fail_at, "rack", "rack1", cause="rack-burst")])
    res = run_experiment(cfg, failure_plan=burst)
    probe = res.runtime.app.params.get("probe_prefix", "")
    post_thpt = res.runtime.metrics.stage_throughput(probe, fail_at + 20.0, cfg.end)
    return res.runtime, res.scheme, post_thpt, fail_at


def test_ablation_rack_burst(benchmark, scale):
    def both():
        return {s: run_burst(s, scale) for s in ("baseline", "ms-src+ap")}

    results = benchmark.pedantic(both, rounds=1, iterations=1)
    rows = []
    for scheme, (rt, sch, post, _fail_at) in results.items():
        if scheme == "baseline":
            outcome = (
                f"{len(sch.recovered)} recovered, {len(sch.unrecoverable)} UNRECOVERABLE"
            )
        else:
            recs = sch.recoveries
            outcome = (
                f"global rollback in {recs[0].total:.1f}s" if recs else "no recovery!"
            )
        alive = sum(1 for h in rt.haus.values() if h.node.alive)
        rows.append([scheme, outcome, f"{alive}/55", post])
    print("\n" + format_table(
        ["scheme", "outcome", "HAUs alive", "post-failure throughput"],
        rows, title="A3 — rack-scale burst failure (BCP, one rack killed)",
    ))

    baseline_sch = results["baseline"][1]
    ms_sch = results["ms-src+ap"][1]
    # the 1-safe baseline loses data: some victims are unrecoverable
    assert baseline_sch.unrecoverable, "expected baseline data loss under a rack burst"
    # Meteor Shower performs a global rollback and resumes processing
    assert ms_sch.recoveries, "MS-src+ap failed to recover"
    assert results["ms-src+ap"][2] > 0, "MS did not resume processing after recovery"
    alive_after = sum(1 for h in results["ms-src+ap"][0].haus.values() if h.node.alive)
    assert alive_after == 55
