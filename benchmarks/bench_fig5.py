"""Fig. 5: fluctuation in state size for the three applications.

Paper envelopes: TMI(N=10) 0..>300 MB; BCP 100-700 MB (avg ~400);
SignalGuru 200 MB-2 GB (avg ~1 GB).  Fast mode scales sizes with the
window (state_scale = window/600); the assertions below check the
*shape*: strong fluctuation with clear local minima, and the relative
ordering of the three workloads (low / medium / high).
"""

from repro.harness.figures import fig5_state_traces


def _stats(series):
    values = [v for (_t, v) in series]
    if not values:
        return 0.0, 0.0, 0.0
    return min(values), max(values), sum(values) / len(values)


def test_fig5_state_fluctuation(benchmark, scale):
    traces = benchmark.pedantic(
        fig5_state_traces,
        kwargs={"window": scale.window, "warmup": scale.warmup, "tmi_windows": (1.0, 5.0, 10.0)},
        rounds=1, iterations=1,
    )
    state_scale = min(1.0, scale.window / 600.0)
    print(f"\nFig. 5 — state size fluctuation (state_scale={state_scale:.2f}; MB)")
    stats = {}
    for name, series in traces.items():
        lo, hi, avg = _stats(series)
        stats[name] = (lo, hi, avg)
        print(f"  {name:14s} min={lo:8.1f}  max={hi:8.1f}  avg={avg:8.1f}  samples={len(series)}")

    # shapes: every dynamic trace fluctuates (max >> min)
    for name in ("bcp", "signalguru"):
        lo, hi, avg = stats[name]
        assert hi > 1.5 * max(lo, 1e-9), f"{name} state does not fluctuate"
    # k-means pools collapse at window boundaries: min well below average
    tmi_keys = [k for k in stats if k.startswith("tmi")]
    assert tmi_keys
    for k in tmi_keys:
        lo, hi, avg = stats[k]
        assert lo < 0.5 * avg
    # workload ordering: SignalGuru (high) > BCP (medium) in average state
    assert stats["signalguru"][2] > stats["bcp"][2]
