"""``python -m repro.inspect`` — the one reader of a run's artifacts.

Subcommands::

    show <path> [--json] [--chrome-trace OUT]
                                  a bundle, a trace or a telemetry snapshot
    diff <a> <b> [--json]         full attributed diff (tables or JSON)
    explain <a> <b> [--limit N]   the short gate-trip explanation

``show`` renders whatever ``<path>`` is: a bundle *directory* (see
``repro.inspect.bundle``), a trace JSONL (first line has ``seq`` and
``kind``; printed exactly as ``ExperimentResult.trace_report()``, and
``--chrome-trace`` exports it for Perfetto) or a telemetry snapshot (a
JSON object with ``metrics`` and ``series``).  ``<a>`` / ``<b>`` are
either bundle directories or report *files* (``BENCH_headline.json`` or
a campaign report) — both sides must be the same flavour.  All output
is byte-deterministic: canonical JSON under ``--json``, fixed-width
tables otherwise, so CI can diff the diff.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.harness.digest import canonical_json
from repro.harness.report import format_table
from repro.inspect.bundle import BundleError, read_bundle
from repro.inspect.diff import DEFAULT_TOP, diff_bundles, diff_reports
from repro.inspect.explain import explain_diff, render_diff_table
from repro.observability import read_jsonl, render_summary, summarize
from repro.profiling import build_timeline, write_chrome_trace


def _load_side(path: str) -> tuple[str, dict[str, Any]]:
    """``("bundle"|"report", loaded)`` for one operand."""
    p = Path(path)
    if p.is_dir():
        return "bundle", read_bundle(p)
    with open(p, encoding="utf-8") as fh:
        return "report", json.load(fh)


def _diff_operands(a_path: str, b_path: str) -> dict[str, Any]:
    a_kind, a = _load_side(a_path)
    b_kind, b = _load_side(b_path)
    if a_kind != b_kind:
        raise ValueError(
            f"cannot diff a {a_kind} ({a_path}) against a {b_kind} ({b_path})"
        )
    if a_kind == "bundle":
        return diff_bundles(a, b)
    return diff_reports(a, b)


def _json_or_none(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError:
        return None


def _load_artifact(path: str) -> tuple[str, Any]:
    """``("bundle"|"trace"|"snapshot", loaded)`` for ``show``'s operand;
    a trace loads as its ``Timeline``."""
    p = Path(path)
    if p.is_dir():
        return "bundle", read_bundle(p)
    with open(p, encoding="utf-8") as fh:
        head = _json_or_none(fh.readline())
    if isinstance(head, dict) and "seq" in head and "kind" in head:
        return "trace", build_timeline(read_jsonl(path))
    doc = _json_or_none(p.read_text(encoding="utf-8"))
    if isinstance(doc, dict) and "metrics" in doc and "series" in doc:
        return "snapshot", doc
    raise ValueError(
        f"{path}: not a bundle directory, a trace JSONL or a telemetry snapshot"
    )


def _labels_str(labels: dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def render_snapshot(snap: dict[str, Any]) -> str:
    """A telemetry snapshot as text: header, counters and gauges,
    histogram distributions, and a per-HAU digest of every series."""
    sections: list[str] = []
    meta = snap.get("meta") or {}
    if meta:
        head = "  ".join(f"{k}={meta[k]}" for k in sorted(meta))
        sections.append(f"telemetry snapshot: {head}")

    metrics = snap.get("metrics") or []
    scalars = [m for m in metrics if m.get("type") in ("counter", "gauge")]
    if scalars:
        rows = [
            [m["name"], m["type"], _labels_str(m.get("labels", {})), m["value"]]
            for m in scalars
        ]
        sections.append(
            format_table(["metric", "type", "labels", "value"], rows,
                         title="Counters and gauges")
        )

    histos = [m for m in metrics if m.get("type") == "histogram"]
    if histos:
        rows = [
            [
                m["name"],
                _labels_str(m.get("labels", {})),
                m["count"],
                m.get("mean", 0.0),
                m.get("p50", 0.0),
                m.get("p95", 0.0),
                m.get("p99", 0.0),
                m.get("max", 0.0),
            ]
            for m in histos
        ]
        sections.append(
            format_table(
                ["histogram", "labels", "count", "mean", "p50", "p95", "p99", "max"],
                rows,
                title="Distributions",
            )
        )

    series = snap.get("series") or {}
    for metric_name in sorted(series):
        per_hau = series[metric_name]
        rows = []
        for hau_id in sorted(per_hau):
            values = [v for (_t, v) in per_hau[hau_id]]
            if values:
                rows.append([hau_id, len(values), values[-1], min(values),
                             max(values), sum(values) / len(values)])
        if rows:
            sections.append(
                format_table(
                    ["hau", "samples", "last", "min", "max", "mean"],
                    rows,
                    title=f"Series: {metric_name}",
                )
            )
    if not sections:
        sections.append("telemetry snapshot: empty")
    return "\n\n".join(sections)


def _cmd_show(args: argparse.Namespace) -> int:
    kind, loaded = _load_artifact(args.path)
    if args.chrome_trace is not None:
        if kind != "trace":
            raise ValueError(f"--chrome-trace needs a trace JSONL; {args.path} is a {kind}")
        write_chrome_trace(loaded, args.chrome_trace)
    if kind == "trace":
        summary = summarize(loaded)
        print(canonical_json(summary) if args.json else render_summary(summary))
    elif args.json:
        print(canonical_json(loaded))
    elif kind == "bundle":
        print(_render_bundle(loaded))
    else:
        print(render_snapshot(loaded))
    return 0


def _render_bundle(bundle: dict[str, Any]) -> str:
    """One bundle's metrics, phase totals, critical paths and stragglers."""
    manifest = bundle["manifest"]
    meta = manifest.get("meta") or {}
    files = bundle["files"]
    metrics = files["metrics.json"]
    lines = [
        f"bundle {manifest['bundle_id'][:16]} "
        f"({meta.get('app')}/{meta.get('scheme')}@{meta.get('n_checkpoints')} "
        f"seed={meta.get('seed')})",
        f"digest: {manifest.get('digest')}",
    ]
    metric_rows = [
        [name, f"{metrics[name]:.6g}" if isinstance(metrics.get(name), (int, float)) else "-"]
        for name in ("throughput", "latency", "rounds_completed")
    ]
    for pct, value in (metrics.get("latency_percentiles") or {}).items():
        metric_rows.append([f"latency_{pct}", f"{value:.6g}"])
    blocks = ["\n".join(lines), format_table(["metric", "value"], metric_rows)]
    totals = (files["phases.json"] or {}).get("totals") or {}
    if totals:
        blocks.append(
            format_table(
                ["phase", "seconds"],
                [[name, f"{secs:.6g}"] for name, secs in totals.items()],
                title="phase-span totals",
            )
        )
    cp = files["critical_paths.json"] or {}
    rounds = cp.get("rounds") or {}
    if rounds:
        gating = cp.get("gating") or {}
        blocks.append(
            format_table(
                ["round", "critical path (s)", "gating HAU"],
                [
                    [rid, f"{secs:.6g}", str(gating.get(rid, "-"))]
                    for rid, secs in sorted(rounds.items(), key=lambda kv: int(kv[0]))
                ],
                title="checkpoint rounds",
            )
        )
    stragglers = (files["timeline.json"] or {}).get("stragglers") or []
    if stragglers:
        blocks.append(
            "stragglers: "
            + ", ".join(f"{s['round']}:{s['hau']}" for s in stragglers)
        )
    return "\n\n".join(blocks)


def _cmd_diff(args: argparse.Namespace) -> int:
    diff = _diff_operands(args.a, args.b)
    if args.json:
        print(canonical_json(diff))
    else:
        print(render_diff_table(diff, limit=args.limit))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    diff = _diff_operands(args.a, args.b)
    for line in explain_diff(diff, limit=args.limit):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.inspect",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="print a bundle, a trace or a telemetry snapshot")
    show.add_argument("path", help="bundle directory, trace JSONL or telemetry snapshot")
    show.add_argument("--json", action="store_true", help="canonical JSON output")
    show.add_argument("--chrome-trace", metavar="OUT", default=None,
                      help="also write a trace as Perfetto trace-event JSON")
    show.set_defaults(func=_cmd_show)

    diff = sub.add_parser("diff", help="attributed diff of two bundles/reports")
    diff.add_argument("a", help="baseline bundle directory or report file")
    diff.add_argument("b", help="candidate bundle directory or report file")
    diff.add_argument("--json", action="store_true", help="canonical JSON output")
    diff.add_argument("--limit", type=int, default=DEFAULT_TOP,
                      help=f"max top movers shown (default {DEFAULT_TOP})")
    diff.set_defaults(func=_cmd_diff)

    explain = sub.add_parser("explain", help="short attributed explanation")
    explain.add_argument("a", help="baseline bundle directory or report file")
    explain.add_argument("b", help="candidate bundle directory or report file")
    explain.add_argument("--limit", type=int, default=5,
                         help="max attribution lines (default 5)")
    explain.set_defaults(func=_cmd_explain)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, BundleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
