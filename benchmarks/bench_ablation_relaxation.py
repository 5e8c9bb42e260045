"""A1 ablation: sensitivity of application-aware checkpointing to the
relaxation factor bound.

§III-C2 bounds the relaxation factor to a minimum of 20% "so that there
are more occasions where the state size stays below smax in each
period".  This bench replays one BCP state trace through the profiling
machinery with different bounds and reports (a) the derived smax, (b)
the fraction of time alert mode could engage, and (c) the expected
checkpointed size if the round fires at the first below-threshold
local minimum per period — showing the trade-off: too tight a bound
misses minima (falls back to period-end checkpoints), too loose a bound
fires early at larger states.
"""

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness import format_table
from repro.harness.figures import default_app_params
from repro.state import StateProfile

ALPHAS = (0.0, 0.1, 0.2, 0.4, 0.8)


def trace_once(scale):
    """Per-HAU state-size samples: hau_id -> [(t, bytes), ...]."""
    cfg = ExperimentConfig(
        app="bcp", scheme="none", window=scale.window, warmup=scale.warmup,
        app_params=default_app_params("bcp", scale.window),
    )
    res = run_experiment(cfg, trace_state=True)
    return res.telemetry_sampler.series["ms_hau_state_bytes"]


def analyze(samples_by_hau, alpha: float, period: float):
    profile = StateProfile(checkpoint_period=period, min_relaxation=alpha,
                           min_dynamic_bytes=1e6, startup_skip=0.25)
    for hau_id, samples in samples_by_hau.items():
        for t, s in samples:
            profile.observe(hau_id, t, s)
    result = profile.result()
    agg = profile.aggregate_series(result.dynamic_haus)
    below = sum(1 for (_t, s) in agg if s < result.smax)
    frac_below = below / max(1, len(agg))
    # expected checkpointed size: per period, the first local minimum
    # below smax (else the period-end value — the fallback)
    t0 = agg[0][0] if agg else 0.0
    sizes = []
    p = t0
    horizon = agg[-1][0] if agg else 0.0
    while p < horizon:
        window = [(t, s) for (t, s) in agg if p <= t < p + period]
        picked = None
        for (_ta, sa), (_tb, sb), (_tc, sc) in zip(window, window[1:], window[2:]):
            if sb < result.smax and sb <= sa and sb <= sc:
                picked = sb
                break
        if picked is None and window:
            picked = window[-1][1]
        if picked is not None:
            sizes.append(picked)
        p += period
    mean_size = sum(sizes) / len(sizes) if sizes else 0.0
    return result.smax, frac_below, mean_size


def test_ablation_relaxation(benchmark, scale):
    trace = benchmark.pedantic(trace_once, args=(scale,), rounds=1, iterations=1)
    period = scale.window / 3.0
    rows = []
    results = {}
    for alpha in ALPHAS:
        smax, frac, size = analyze(trace, alpha, period)
        results[alpha] = (smax, frac, size)
        rows.append([f"{alpha:.1f}", f"{smax / 1e6:.1f}", f"{frac:.0%}", f"{size / 1e6:.1f}"])
    print("\n" + format_table(
        ["min relaxation", "smax (MB)", "time below smax", "expected ckpt size (MB)"],
        rows, title="A1 — relaxation-factor ablation (BCP state trace)",
    ))
    # a looser bound gives (weakly) more opportunity to enter alert mode
    assert results[0.8][1] >= results[0.0][1]
    # and smax is monotone in the bound
    assert results[0.8][0] >= results[0.2][0] >= results[0.0][0]
