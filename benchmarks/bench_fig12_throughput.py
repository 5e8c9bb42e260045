"""Fig. 12: normalised throughput vs number of checkpoints per window.

Series per application, all normalised to the baseline at zero
checkpoints.  Expected shape (paper): baseline degrades the most with
checkpoint count (worst on SignalGuru, the heaviest state); MS-src sits
above the baseline everywhere (source preservation); MS-src+ap stays
nearly flat (asynchronous checkpointing); MS-src+ap+aa is the best.
"""

from repro.harness import format_table

PAPER_NOTES = {
    "tmi": "paper: baseline 1.00->0.71, ms-src 1.24->0.87, ap 1.15->1.03, aa 1.22->1.13",
    "bcp": "paper: baseline 1.00->0.47, ms-src 1.31->0.66, ap 1.25->1.01, aa 1.29->1.16",
    "signalguru": "paper: baseline 1.00->0.21, ms-src 1.51->0.33, ap 1.38->0.35*, aa 1.48->1.25",
}


def test_fig12_throughput(benchmark, get_sweep):
    sweep = benchmark.pedantic(get_sweep, rounds=1, iterations=1)
    for app in ("tmi", "bcp", "signalguru"):
        series = sweep.normalized(app, "throughput")
        counts = sorted({n for pts in series.values() for (n, _v) in pts})
        headers = ["scheme"] + [str(n) for n in counts]
        rows = []
        for scheme in ("baseline", "ms-src", "ms-src+ap", "ms-src+ap+aa"):
            pts = dict(series.get(scheme, []))
            rows.append([scheme] + [f"{pts.get(n, float('nan')):.2f}" for n in counts])
        print("\n" + format_table(headers, rows, title=f"Fig. 12 — {app} (normalised throughput)"))
        print("  " + PAPER_NOTES[app])

        # shape assertions
        base = dict(series["baseline"])
        src = dict(series["ms-src"])
        ap = dict(series["ms-src+ap"])
        aa = dict(series["ms-src+ap+aa"])
        # source preservation wins at zero checkpoints
        assert src[0] > 1.10, f"{app}: MS-src should beat baseline at 0 ckpts"
        # baseline monotonically degrades (allowing small noise)
        assert base[max(counts)] <= base[0] + 0.02
        # at the highest checkpoint count the full system beats the baseline
        assert aa[max(counts)] > base[max(counts)]
        # ap resists checkpoint-count degradation better than ms-src
        assert ap[max(counts)] >= src[max(counts)] - 0.05
