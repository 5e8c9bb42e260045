"""``python -m repro.monitor`` — replay SLO monitoring over a trace file.

The same :class:`~repro.monitor.plane.MonitorPlane` that rides live
runs replays a recorded trace (the JSONL that
``ExperimentResult.write_trace`` writes) completely offline, producing
the identical alert log and health timeline the live run produced for
every trace-derived SLO::

    python -m repro.monitor TRACE.jsonl                    # tables
    python -m repro.monitor TRACE.jsonl --json             # canonical JSON
    python -m repro.monitor TRACE.jsonl --period 2 \\
        --bound checkpoint-staleness=20                    # tuned windows

Registry-backed SLO kinds (``latency-p99``) need the live metric
registry and are inactive in replay; everything else — checkpoint
durations, recovery time, checkpoint staleness, alerts, health — comes
straight from the trace.  Output is byte-deterministic, so two replays
of the same file diff clean.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.harness.digest import canonical_json
from repro.harness.report import format_table
from repro.monitor.plane import MonitorPlane
from repro.monitor.slo import SLO_KINDS, default_slos
from repro.observability.export import read_jsonl
from repro.profiling.spans import normalize_events


def _parse_bounds(pairs: list[str]) -> dict[str, float]:
    bounds: dict[str, float] = {}
    for pair in pairs:
        kind, sep, value = pair.partition("=")
        if not sep or kind not in SLO_KINDS:
            raise SystemExit(
                f"--bound wants KIND=SECONDS with KIND in {', '.join(SLO_KINDS)}; "
                f"got {pair!r}"
            )
        bounds[kind] = float(value)
    return bounds


def replay(
    path: str,
    period: float = 1.0,
    bounds: dict[str, float] | None = None,
    fast_window: float = 10.0,
    slow_window: float = 30.0,
) -> MonitorPlane:
    """Run the offline replay and return the finished plane."""
    plane = MonitorPlane(
        period=period,
        slos=default_slos(bounds, fast_window=fast_window, slow_window=slow_window),
    )
    plane.run_offline(normalize_events(read_jsonl(path)))
    return plane


def render_tables(plane: MonitorPlane) -> str:
    """The human-facing view: alert log + health timeline + summary."""
    parts = []
    summary = plane.summary()
    parts.append(
        format_table(
            ["ticks", "fired", "resolved", "active"],
            [[plane.ticks, summary["fired"], summary["resolved"], summary["active"]]],
            title="monitor summary",
        )
    )
    if plane.alerts:
        parts.append(
            format_table(
                ["t", "slo", "subject", "action", "burn_fast", "burn_slow"],
                [
                    [a["t"], a["slo"], a["subject"] or "-", a["action"],
                     a["burn_fast"], a["burn_slow"]]
                    for a in plane.alerts
                ],
                title="alert log",
            )
        )
    else:
        parts.append("alert log: (no alerts)")
    timeline = plane.health.timeline
    if timeline:
        parts.append(
            format_table(
                ["t", "entity", "from", "to", "reason"],
                [[h["t"], h["entity"], h["from"], h["to"], h["reason"]] for h in timeline],
                title="health timeline",
            )
        )
    else:
        parts.append("health timeline: (no transitions)")
    return "\n\n".join(parts)


def as_json(plane: MonitorPlane) -> dict[str, Any]:
    return {
        "alerts": plane.as_dict(),
        "health_timeline": list(plane.health.timeline),
        "health": plane.health.states(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.monitor",
        description="Replay SLO burn-rate monitoring over a recorded trace file.",
    )
    parser.add_argument("trace", help="trace JSONL file (ExperimentResult.write_trace)")
    parser.add_argument("--period", type=float, default=1.0, help="tick period in sim seconds")
    parser.add_argument(
        "--bound",
        action="append",
        default=[],
        metavar="KIND=SECONDS",
        help="override one SLO bound (repeatable)",
    )
    parser.add_argument("--fast-window", type=float, default=10.0, help="fast burn window (s)")
    parser.add_argument("--slow-window", type=float, default=30.0, help="slow burn window (s)")
    parser.add_argument("--json", action="store_true", help="canonical JSON instead of tables")
    args = parser.parse_args(argv)

    plane = replay(
        args.trace,
        period=args.period,
        bounds=_parse_bounds(args.bound),
        fast_window=args.fast_window,
        slow_window=args.slow_window,
    )
    if args.json:
        print(canonical_json(as_json(plane)))
    else:
        print(render_tables(plane))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
