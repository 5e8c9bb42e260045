"""Fig. 14: checkpoint time and its breakdown.

Per app: MS-src total wall clock (token propagation overlaps individual
checkpoints), and for MS-src+ap / MS-src+ap+aa / Oracle the slowest
individual checkpoint split into token collection / disk I/O / other.

Paper (600 s windows): TMI 61.9 / 22.1 / 6.7 / 5.8 s; BCP 82.9 / 55.7 /
29.0 / 26.4 s; SignalGuru 151.7 / 133.2 / 27.2 / 24.6 s.  Expected
shape: disk I/O dominates; +ap cuts time vs MS-src; +aa cuts it hard and
lands near the Oracle.
"""

from repro.harness import breakdown_row, format_table
from repro.harness.figures import fig14_checkpoint_time


def test_fig14_checkpoint_time(benchmark):
    data = benchmark.pedantic(fig14_checkpoint_time, rounds=1, iterations=1)
    for app, per_scheme in data.items():
        columns = [("token_collection", ".2f"), ("disk_io", ".2f"), ("other", ".2f"), ("total", ".2f")]
        rows = [
            breakdown_row(scheme, per_scheme[scheme], columns)
            for scheme in ("ms-src", "ms-src+ap", "ms-src+ap+aa", "oracle")
        ]
        print("\n" + format_table(
            ["scheme", "token-collect", "disk I/O", "other", "total (s)"],
            rows,
            title=f"Fig. 14 — checkpoint time, {app} (ms-src: wall clock of the whole"
            " round — its per-HAU phases overlap, so it has no breakdown)",
        ))

        # a cell that carries a reason has no total: it is left out, and
        # the comparisons below run only when every scheme has numbers
        total = {s: d["total"] for s, d in per_scheme.items() if "reason" not in d}
        if {"ms-src", "ms-src+ap", "ms-src+ap+aa", "oracle"} <= set(total):
            # parallel+async is faster than the serial token cascade
            assert total["ms-src+ap"] < total["ms-src"]
            assert total["ms-src+ap+aa"] <= total["ms-src"]
            ap = per_scheme["ms-src+ap"]
            # the I/O side of the breakdown dominates the pure-CPU side
            assert ap["disk_io"] >= ap["other"]
            # The aa-vs-fixed-time storage-I/O comparison is asserted on
            # BCP, whose state dynamics are slow enough for the scaled-down
            # fast-mode windows to resolve; see EXPERIMENTS.md for the
            # TMI/SignalGuru discussion.
            if app == "bcp":
                aa = per_scheme["ms-src+ap+aa"]
                oracle = per_scheme["oracle"]
                assert aa["disk_io"] <= ap["disk_io"] * 1.30
                assert aa["disk_io"] <= oracle["disk_io"] * 2.5
