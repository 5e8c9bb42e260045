"""Fig. 13: normalised latency vs number of checkpoints per window.

Same sweep as Fig. 12 (cached).  Expected shape (paper): baseline
latency grows steeply with checkpoint count (2.7-5.9x at 8); MS-src
grows too; MS-src+ap grows mildly; MS-src+ap+aa stays within a few
percent of the no-checkpoint latency.
"""

from repro.harness import format_table

PAPER_NOTES = {
    "tmi": "paper: baseline 1.00->3.04, ms-src 0.95->2.74, ap 1.01->1.31, aa ~0.96",
    "bcp": "paper: baseline 1.00->2.78, ms-src 0.91->2.18, ap 0.96->1.39, aa ~0.96",
    "signalguru": "paper: baseline 1.00->5.82, ms-src 0.86->5.11, ap 1.23->... , aa ~1.1",
}


def test_fig13_latency(benchmark, get_sweep):
    sweep = benchmark.pedantic(get_sweep, rounds=1, iterations=1)
    for app in ("tmi", "bcp", "signalguru"):
        series = sweep.normalized(app, "latency")
        counts = sorted({n for pts in series.values() for (n, _v) in pts})
        headers = ["scheme"] + [str(n) for n in counts]
        rows = []
        for scheme in ("baseline", "ms-src", "ms-src+ap", "ms-src+ap+aa"):
            pts = dict(series.get(scheme, []))
            rows.append([scheme] + [f"{pts.get(n, float('nan')):.2f}" for n in counts])
        print("\n" + format_table(headers, rows, title=f"Fig. 13 — {app} (normalised latency)"))
        print("  " + PAPER_NOTES[app])

        base = dict(series["baseline"])
        src = dict(series["ms-src"])
        aa = dict(series["ms-src+ap+aa"])
        hi = max(counts)
        # Meteor Shower's latency at 0 checkpoints is below the baseline's
        assert src[0] < 1.0, f"{app}: MS-src latency should be below baseline at 0"
        # at high checkpoint counts, the full system's latency stays below
        # the baseline's
        assert aa[hi] < base[hi] + 0.05
