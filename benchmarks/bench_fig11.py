"""Fig. 11: choosing the time for checkpointing (alert mode + ICR).

Runs MS-src+ap+aa on BCP and reports, per checkpoint period, when and
why the controller fired the round (first non-negative aggregated ICR in
alert mode, or the period-end fallback) and how much dynamic state the
round actually checkpointed versus the time-average — the quantity
application-aware checkpointing exists to minimise (§I: ~100% / 50% /
80% reduction for TMI / BCP / SignalGuru).
"""

from repro.harness.experiment import run_experiment
from repro.harness.figures import figure_config


def run_aa(scale):
    cfg = figure_config("bcp", "ms-src+ap+aa", 3, scale.window, scale.warmup)
    return run_experiment(cfg, trace_state=True)


def test_fig11_alert_mode_decisions(benchmark, scale):
    res = benchmark.pedantic(run_aa, args=(scale,), rounds=1, iterations=1)
    scheme = res.scheme
    print("\nFig. 11 — application-aware checkpoint timing (BCP)")
    print(f"  profiled smax = {scheme.profile_result.smax / 1e6:.1f} MB; "
          f"dynamic HAUs = {scheme.dynamic_haus}")
    for t, reason in scheme.record.decisions:
        print(f"  round initiated at t={t:8.1f}s  reason={reason}")

    # dynamic-state average vs what the aa rounds checkpointed
    dyn_series = res.state_series("H")
    avg_dynamic = sum(s for (_t, s) in dyn_series) / max(1, len(dyn_series))
    ckpt_sizes = []
    for log in res.checkpoint_logs:
        dyn_bytes = sum(
            bd.state_bytes for hau, bd in log.haus.items() if hau.startswith("H")
        )
        if log.haus:
            ckpt_sizes.append(dyn_bytes)
    if ckpt_sizes:
        mean_ckpt = sum(ckpt_sizes) / len(ckpt_sizes)
        reduction = 1.0 - mean_ckpt / max(avg_dynamic, 1e-9)
        print(f"  avg dynamic state {avg_dynamic / 1e6:.1f} MB; "
              f"avg checkpointed dynamic state {mean_ckpt / 1e6:.1f} MB; "
              f"reduction {reduction:.0%} (paper BCP: ~50%)")
        assert mean_ckpt < avg_dynamic, "aa failed to checkpoint below the average state"
    assert scheme.record.decisions, "no rounds were initiated"
    assert scheme.profile_result is not None
