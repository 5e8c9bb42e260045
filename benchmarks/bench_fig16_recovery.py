"""Fig. 16: worst-case recovery time and its breakdown.

Every node hosting the application fails; all 55 HAUs restart on spare
nodes from shared storage.  Breakdown: reconnection / disk I/O / other
(reload + deserialise).

Paper (600 s windows): MS-src(+ap) 11.3 / 17.4 / 43.2 s for TMI / BCP /
SignalGuru; MS-src+ap+aa 4.7 / 9.9 / 10.0 s; Oracle 4.4 / 9.1 / 8.5 s.
Expected shape: disk I/O dominates; +aa cuts recovery time ~59% vs
MS-src(+ap), close to the Oracle.
"""

from repro.harness import breakdown_row, format_table
from repro.harness.experiment import FULL_SCALE
from repro.harness.figures import fig16_recovery_time


def test_fig16_recovery_time(benchmark):
    data = benchmark.pedantic(fig16_recovery_time, rounds=1, iterations=1)
    for app, per_scheme in data.items():
        columns = [
            ("reconnection", ".2f"), ("disk_io", ".2f"), ("other", ".2f"),
            ("total", ".2f"), ("bytes_read_mb", ".1f"),
        ]
        rows = [
            breakdown_row(scheme, per_scheme[scheme], columns)
            for scheme in ("ms-src+ap", "ms-src+ap+aa", "oracle")
        ]
        print("\n" + format_table(
            ["scheme", "reconnect", "disk I/O", "other", "total (s)", "MB read"],
            rows, title=f"Fig. 16 — worst-case recovery, {app} (MS-src and MS-src+ap share recovery)",
        ))

        # a cell that carries a reason (no recovery recorded) is left out
        totals = {s: d["total"] for s, d in per_scheme.items() if "reason" not in d}
        if {"ms-src+ap", "ms-src+ap+aa", "oracle"} <= set(totals):
            ap = per_scheme["ms-src+ap"]
            # disk I/O dominates recovery over the reconnection round
            assert ap["disk_io"] >= ap["reconnection"]
            # The aa-vs-fixed-time read-volume ordering holds when the
            # operator state dominates the checkpoint.  In fast mode the
            # scaled-down states are comparable to the saved in-flight
            # tuples (whose volume is queue-depth noise at the chosen
            # instant), so the strict ordering is asserted at paper scale
            # only (REPRO_FULL=1); see EXPERIMENTS.md.
            aa = per_scheme["ms-src+ap+aa"]
            assert aa["total"] <= ap["total"] * 2.5  # noise-bounded always
            if FULL_SCALE and app == "bcp":
                assert aa["bytes_read_mb"] <= ap["bytes_read_mb"] * 1.10
                assert aa["disk_io"] <= ap["disk_io"] * 1.15
                assert totals["ms-src+ap+aa"] <= totals["ms-src+ap"] * 1.15
