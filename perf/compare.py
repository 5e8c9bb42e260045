"""Compare two reports of perf.run: ``python -m perf.compare A.json B.json``.

One row per workload x end-to-end metric: both medians with their
quartiles, the change of B against A in the metric's worse direction,
the bound from ``BENCHMARK.json`` and a verdict:

* ``worse`` / ``better`` — B's median is beyond the bound from A's;
* ``within-bound`` — it is not;
* ``unresolved`` — the spread between passes (quartile distance over
  median, the wider of the two reports) exceeds the bound and the two
  reports' passes overlap, so neither of the above can be said.

Also says whether the simulated statistics are identical: ``sim_digest``
per workload and, for two traced reports, every per-layer metric whose
unit is ``count``.  If they are not, the model changed and the host
numbers are not like for like.  Exits 1 on any ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys

from perf.run import load_spec


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """``(relative change in the worse direction, verdict)``."""
    change = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        change = -change
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    overlap = min(a["values"]) <= max(b["values"]) and min(b["values"]) <= max(a["values"])
    if spread > bound and overlap:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "within-bound"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """``(report lines, any metric worse)``."""
    lines = []
    any_worse = False
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        row_a, row_b = a["workloads"][name], b["workloads"][name]
        same = row_a["sim_digest"] == row_b["sim_digest"]
        lines.append(f"{name}: sim_digest {'identical' if same else 'DIFFERS'}")
        for metric in spec["end_to_end"]:
            stats_a = row_a["metrics"].get(metric["name"])
            stats_b = row_b["metrics"].get(metric["name"])
            if not isinstance(stats_a, dict) or not isinstance(stats_b, dict):
                continue  # a traced report: no end-to-end summaries
            change, word = verdict(stats_a, stats_b, metric["better"], metric["bound"])
            any_worse |= word == "worse"
            lines.append(
                f"  {metric['name']:<18} A {stats_a['median']:>12.4f}"
                f" [{stats_a['q1']:.4f}, {stats_a['q3']:.4f}]"
                f"  B {stats_b['median']:>12.4f} [{stats_b['q1']:.4f}, {stats_b['q3']:.4f}]"
                f" {metric['unit']:<4} worse by {change:+7.2%}"
                f" (bound {metric['bound']:.0%})  {word}"
            )
        differing = sorted(
            metric for metric in counts
            if metric in row_a["metrics"] and metric in row_b["metrics"]
            and row_a["metrics"][metric] != row_b["metrics"][metric]
        )
        for metric in differing:
            lines.append(f"  {metric}: {row_a['metrics'][metric]} != {row_b['metrics'][metric]}")
    return lines, any_worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="report of the first set of runs (the parent)")
    parser.add_argument("b", help="report of the second set of runs (the change)")
    args = parser.parse_args(argv)
    reports = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    lines, any_worse = compare(*reports, load_spec())
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
