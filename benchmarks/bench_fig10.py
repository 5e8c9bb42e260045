"""Fig. 10: the profiling pass — dynamic HAUs, per-period minima, smax.

Runs BCP without checkpointing, feeds the observed state sizes through
the §III-C2 profiling machinery and reports the derived alert threshold
(smax), smin, the bounded relaxation factor and the dynamic-HAU set.
"""

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.figures import default_app_params
from repro.state import MIN_RELAXATION, StateProfile


def profile_bcp(scale):
    cfg = ExperimentConfig(
        app="bcp", scheme="none", window=scale.window, warmup=scale.warmup,
        app_params=default_app_params("bcp", scale.window),
    )
    res = run_experiment(cfg, trace_state=True)
    period = scale.window / 3.0
    profile = StateProfile(checkpoint_period=period, min_dynamic_bytes=1e6, startup_skip=0.25)
    for hau_id, samples in res.telemetry_sampler.series["ms_hau_state_bytes"].items():
        for t, s in samples:
            profile.observe(hau_id, t, s)
    return profile.result(), period


def test_fig10_profiling(benchmark, scale):
    result, period = benchmark.pedantic(profile_bcp, args=(scale,), rounds=1, iterations=1)
    print(f"\nFig. 10 — profiling (BCP, checkpoint period {period:.0f}s)")
    print(f"  dynamic HAUs: {result.dynamic_haus}")
    print(f"  smin = {result.smin / 1e6:.1f} MB   smax = {result.smax / 1e6:.1f} MB")
    print(f"  relaxation factor = {result.relaxation:.2f} (bounded at {MIN_RELAXATION})")
    for t, s in result.period_minima:
        print(f"  period minimum: t={t:8.1f}s  size={s / 1e6:8.1f} MB")

    # the historical-image operators are the dynamic HAUs
    assert any(h.startswith("H") for h in result.dynamic_haus)
    # no stateless stage should be classified dynamic
    assert not any(h.startswith("D") for h in result.dynamic_haus)
    assert result.smax >= result.smin >= 0
    assert result.period_minima
