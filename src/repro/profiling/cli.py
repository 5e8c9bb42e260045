"""``python -m repro.profiling`` — causal timelines from traces or runs.

Two input modes:

* **Trace file**: point it at a trace JSONL written by
  ``ExperimentResult.write_trace`` (or the CI artifact) and it
  reconstructs the timeline offline.
* **Run mode** (no positional argument): runs the configured schemes
  in-process with tracing enabled — ``--schemes ms-src,ms-src+ap`` etc.
  — so ``python -m repro.profiling --format chrome-trace`` is a
  one-command Perfetto export of a headline-style run.

Formats: ``table`` (fixed-width, via the harness formatter), ``json``
(deterministic timeline + critical paths + stragglers), and
``chrome-trace`` (Perfetto / ``chrome://tracing`` loadable).

``--straggler-report`` narrows the output to just the straggler report
(HAUs whose per-round checkpoint time exceeds ``--straggler-k`` x the
round median) in table or json form.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.profiling.chrome_trace import (
    dumps_chrome_trace,
    merge_chrome_traces,
    to_chrome_trace,
)
from repro.profiling.critical_path import (
    compute_critical_path,
    critical_paths,
    straggler_report,
)
from repro.profiling.spans import Timeline, build_timeline

_JSON_KW = dict(sort_keys=True, separators=(",", ":"), allow_nan=False)

DEFAULT_SCHEMES = "ms-src,ms-src+ap,ms-src+ap+aa"


def _fmt_t(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def render_timeline(
    tl: Timeline,
    title: str = "",
    round_filter: int | None = None,
    show_critical_path: bool = False,
    straggler_k: float = 2.0,
) -> str:
    """Fixed-width tables for one timeline."""
    # deferred: keep repro.profiling importable without the harness
    from repro.harness.report import format_table

    sections: list[str] = []
    waves = [
        w for w in tl.rounds if round_filter is None or w.round_id == round_filter
    ]
    if waves:
        rows = [
            [
                w.round_id,
                _fmt_t(w.started_at),
                _fmt_t(w.completed_at),
                _fmt_t(w.duration),
                len(w.haus),
                ",".join(w.stalled_haus()) or "-",
            ]
            for w in waves
        ]
        label = f"Checkpoint rounds ({tl.scheme})" if tl.scheme else "Checkpoint rounds"
        sections.append(
            format_table(
                ["round", "start", "complete", "seconds", "haus", "incomplete"],
                rows,
                title=title + label if title else label,
            )
        )
    elif title:
        sections.append(f"{title}no checkpoint rounds in trace")

    if show_critical_path:
        paths = (
            [p for p in [compute_critical_path(tl, round_filter)] if p]
            if round_filter is not None
            else critical_paths(tl)
        )
        for path in paths:
            rows = [
                [h.kind, h.subject, _fmt_t(h.start), _fmt_t(h.end), _fmt_t(h.duration)]
                for h in path.hops
            ]
            sections.append(
                format_table(
                    ["hop", "subject", "start", "end", "seconds"],
                    rows,
                    title=(
                        f"Critical path: round {path.round_id} "
                        f"({path.seconds:.3f}s, gated by {path.gating_hau})"
                    ),
                )
            )

    straggler_table = render_stragglers(tl, round_filter, straggler_k)
    if straggler_table is not None:
        sections.append(straggler_table)

    if tl.recoveries:
        rows = [
            [
                i + 1,
                _fmt_t(rec.detected_at),
                _fmt_t(rec.started_at),
                _fmt_t(rec.completed_at),
                _fmt_t(rec.total),
                len(rec.haus),
                rec.dead or "-",
            ]
            for i, rec in enumerate(tl.recoveries)
        ]
        sections.append(
            format_table(
                ["#", "detected", "start", "reconnect", "seconds", "haus", "dead"],
                rows,
                title="Recoveries",
            )
        )
    if not sections:
        sections.append("empty trace: no rounds, recoveries or spans")
    return "\n\n".join(sections)


def render_stragglers(
    tl: Timeline, round_filter: int | None, straggler_k: float
) -> str | None:
    """Straggler table for one timeline; ``None`` when nothing is flagged."""
    from repro.harness.report import format_table

    stragglers = [
        s
        for s in straggler_report(tl, k=straggler_k)
        if round_filter is None or s.round_id == round_filter
    ]
    if not stragglers:
        return None
    rows = [
        [s.round_id, s.hau_id, _fmt_t(s.seconds), _fmt_t(s.median_seconds),
         f"{s.ratio:.2f}x"]
        for s in stragglers
    ]
    return format_table(
        ["round", "hau", "seconds", "median", "ratio"],
        rows,
        title=f"Stragglers (> {straggler_k:g}x round median)",
    )


def timeline_payload(
    tl: Timeline, round_filter: int | None, straggler_k: float
) -> dict[str, Any]:
    """The JSON-format payload for one timeline."""
    paths = (
        [p for p in [compute_critical_path(tl, round_filter)] if p]
        if round_filter is not None
        else critical_paths(tl)
    )
    data = tl.as_dict()
    if round_filter is not None:
        data["rounds"] = [r for r in data["rounds"] if r["round"] == round_filter]
    return {
        "timeline": data,
        "critical_paths": [p.as_dict() for p in paths],
        "stragglers": [
            s.as_dict()
            for s in straggler_report(tl, k=straggler_k)
            if round_filter is None or s.round_id == round_filter
        ],
    }


def _run_schemes(args: argparse.Namespace) -> list[tuple[str, Timeline]]:
    """Run each configured scheme with tracing on; returns (name, timeline)."""
    # deferred: the harness pulls in the whole experiment stack
    from repro.harness.experiment import ExperimentConfig, run_experiment

    out = []
    for scheme in args.schemes.split(","):
        scheme = scheme.strip()
        if not scheme:
            continue
        cfg = ExperimentConfig(
            app=args.app,
            scheme=scheme,
            n_checkpoints=args.checkpoints,
            window=args.window,
            warmup=args.warmup,
            seed=args.seed,
            workers=args.workers,
            spares=args.spares,
            racks=args.racks,
            enable_recovery=args.failure_at is not None,
        )
        result = run_experiment(cfg, failure_at=args.failure_at, trace=True)
        out.append((scheme, result.timeline()))
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profiling",
        description="Causal timelines, critical paths and Perfetto export.",
    )
    parser.add_argument(
        "trace", nargs="?", default=None,
        help="trace JSONL file (omit to run the configured schemes)",
    )
    parser.add_argument(
        "--format", choices=("table", "json", "chrome-trace"), default="table",
    )
    parser.add_argument("--round", type=int, default=None, metavar="N",
                        help="restrict output to round N")
    parser.add_argument("--critical-path", action="store_true",
                        help="show per-round critical-path hops (table format)")
    parser.add_argument("--straggler-k", type=float, default=2.0,
                        help="straggler threshold: k x round median (default 2)")
    parser.add_argument("--straggler-report", action="store_true",
                        help="print only the straggler report (table/json formats)")
    parser.add_argument("--output", "-o", default=None,
                        help="write to a file instead of stdout")
    run = parser.add_argument_group("run mode (no trace file)")
    run.add_argument("--app", default="tmi")
    run.add_argument("--schemes", default=DEFAULT_SCHEMES,
                     help=f"comma-separated scheme list (default {DEFAULT_SCHEMES})")
    run.add_argument("--checkpoints", type=int, default=2)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--window", type=float, default=60.0)
    run.add_argument("--warmup", type=float, default=20.0)
    run.add_argument("--workers", type=int, default=8)
    run.add_argument("--spares", type=int, default=12)
    run.add_argument("--racks", type=int, default=2)
    run.add_argument("--failure-at", type=float, default=None,
                     help="inject a whole-app failure at this instant")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.trace is not None:
        from repro.observability.export import read_jsonl

        try:
            timelines = [("", build_timeline(read_jsonl(args.trace)))]
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            timelines = _run_schemes(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not timelines:
            print("error: no schemes to run", file=sys.stderr)
            return 2

    if args.straggler_report:
        if args.format == "chrome-trace":
            print("error: --straggler-report supports table/json formats only",
                  file=sys.stderr)
            return 2
        if args.format == "json":
            payload = {
                name or "trace": [
                    s.as_dict()
                    for s in straggler_report(tl, k=args.straggler_k)
                    if args.round is None or s.round_id == args.round
                ]
                for name, tl in timelines
            }
            text = json.dumps(payload, **_JSON_KW) + "\n"
        else:
            parts = []
            for name, tl in timelines:
                table = render_stragglers(tl, args.round, args.straggler_k)
                if table is None:
                    table = f"no stragglers (> {args.straggler_k:g}x round median)"
                parts.append(f"== {name} ==\n\n{table}" if name else table)
            text = "\n\n".join(parts) + "\n"
        return _write_output(text, args.output)

    if args.format == "chrome-trace":
        traces = [
            to_chrome_trace(
                tl,
                pid_base=i * 1000,
                label_prefix=f"{name}/" if name else "",
            )
            for i, (name, tl) in enumerate(timelines)
        ]
        text = dumps_chrome_trace(
            traces[0] if len(traces) == 1 else merge_chrome_traces(traces)
        )
    elif args.format == "json":
        payload = {
            name or "trace": timeline_payload(tl, args.round, args.straggler_k)
            for name, tl in timelines
        }
        text = json.dumps(payload, **_JSON_KW) + "\n"
    else:
        parts = [
            render_timeline(
                tl,
                title=f"== {name} ==\n\n" if name else "",
                round_filter=args.round,
                show_critical_path=args.critical_path,
                straggler_k=args.straggler_k,
            )
            for name, tl in timelines
        ]
        text = "\n\n".join(parts) + "\n"

    return _write_output(text, args.output)


def _write_output(text: str, output: str | None) -> int:
    try:
        if output:
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except BrokenPipeError:
        # downstream consumer (e.g. `head`) closed the pipe early
        sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
