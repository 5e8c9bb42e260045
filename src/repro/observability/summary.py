"""Trace summaries: per-run checkpoint timelines and recovery breakdowns.

Renders a trace's :class:`~repro.observability.timeline.Timeline` (rounds and
recoveries are folded there, once) as the structures the paper's
debugging workflow needs: per-round checkpoint timelines (start → write
→ commit, per HAU) with each round's status and stalled HAUs, token-hop
counts, failure/recovery timelines with the four recovery phases,
alert-mode decisions, replay volumes, each complete round's critical
path and the straggler report.  The result is a plain dict (JSON-ready)
plus :func:`render_summary`, the one text renderer of a timeline —
``ExperimentResult.trace_report()`` and ``python -m repro.inspect show
TRACE.jsonl`` both print it.
"""

from __future__ import annotations

import json
from typing import Any

from repro.observability.critical_path import critical_paths, straggler_report
from repro.observability.timeline import build_timeline


def summarize(source: Any) -> dict[str, Any]:
    """Render a trace (tracer, events or its ``Timeline``) as a
    JSON-ready summary dict."""
    tl = build_timeline(source)
    events = tl.events
    counts: dict[str, int] = {}
    tokens: dict[tuple[str, int], int] = {}
    failures: list[dict[str, Any]] = []
    baseline_recoveries: list[dict[str, Any]] = []
    alerts: list[dict[str, Any]] = []
    replays = {"out": 0, "backlog": 0, "source": 0}
    for e in events:
        kind = e.kind
        counts[kind] = counts.get(kind, 0) + 1
        if kind in ("token.send", "token.recv"):
            key = (kind, e.get("round"))
            tokens[key] = tokens.get(key, 0) + 1
        elif kind in ("failure.inject", "failure.detected"):
            failures.append(
                {"t": e.t, "kind": kind, "target": e.subject, "detail": dict(e.data)}
            )
        elif kind.startswith("baseline.recover") or kind == "baseline.unrecoverable":
            baseline_recoveries.append({"t": e.t, "kind": kind, "hau": e.subject})
        elif kind in ("aa.alert.enter", "aa.decision", "aa.profile"):
            alerts.append({"t": e.t, "kind": kind, "detail": dict(e.data)})
        elif kind in ("replay.out", "replay.backlog", "replay.source"):
            replays[kind.partition(".")[2]] += e.get("count", 0)

    rounds = []
    for log in sorted(tl.rounds, key=lambda w: w.round_id):
        started = {h: bd for h, bd in sorted(log.haus.items()) if bd.start_at is not None}
        entry: dict[str, Any] = {
            "round_id": log.round_id,
            "scheme": log.scheme,
            "started_at": log.started_at,
            "completed_at": log.completed_at,
            "status": log.status(),
            "stalled_haus": log.stalled_haus(),
            "token_sends": tokens.get(("token.send", log.round_id), 0),
            "token_recvs": tokens.get(("token.recv", log.round_id), 0),
            "haus": {
                h: {
                    "start_at": bd.start_at,
                    "mode": bd.mode,
                    "write_start_at": bd.write_start_at,
                    "commit_at": bd.write_end_at,
                    "bytes": bd.state_bytes,
                }
                for h, bd in started.items()
            },
        }
        if any(bd.complete for bd in started.values()):
            entry["wall_clock"] = log.wall_clock()
        rounds.append(entry)

    recoveries = []
    for rec in tl.recoveries:
        if rec.started_at is None:
            continue  # detected, never rolled back (the baseline restarts HAUs singly)
        phases: dict[str, float] = {}
        if rec.completed_at is not None:
            phases["reconnect"] = rec.reconnect_seconds
        if rec.complete:
            phases.update(
                reload=rec.reload_seconds,
                disk_io=rec.disk_io_seconds,
                deserialize=rec.deserialize_seconds,
            )
        recoveries.append(
            {
                "detected_at": rec.detected_at,
                "started_at": rec.started_at,
                "dead": rec.dead,
                "haus": {
                    h: {
                        "node": row.node,
                        "reload": row.reload_seconds,
                        "disk_io": row.disk_io_seconds,
                        "deserialize": row.deserialize_seconds,
                        "bytes": row.bytes_read,
                    }
                    for h, row in rec.haus.items()
                    if row.end_at is not None
                },
                "phases": phases,
                "completed_at": rec.done_at,
                "total": rec.total if rec.complete else None,
            }
        )

    return {
        "n_events": len(events),
        "span": [events[0].t, events[-1].t] if events else [0.0, 0.0],
        "counts": dict(sorted(counts.items())),
        "rounds": rounds,
        "failures": failures,
        "recoveries": recoveries,
        "baseline_recoveries": baseline_recoveries,
        "alerts": alerts,
        "replays": replays,
        "critical_paths": [p.as_dict() for p in critical_paths(tl)],
        "stragglers": [s.as_dict() for s in straggler_report(tl)],
    }


def render_summary(summary: dict[str, Any]) -> str:
    """Human-readable report of a trace summary."""
    lines: list[str] = []
    t0, t1 = summary["span"]
    lines.append(
        f"trace: {summary['n_events']} events over sim [{t0:.3f}s, {t1:.3f}s]"
    )
    lines.append("event counts:")
    for kind, n in summary["counts"].items():
        lines.append(f"  {kind:<28} {n}")
    if summary["rounds"]:
        lines.append("checkpoint rounds:")
        for entry in summary["rounds"]:
            rid = entry["round_id"]
            wall = entry.get("wall_clock")
            wall_s = f" wall={wall:.3f}s" if wall is not None else ""
            lines.append(
                f"  round {rid} [{entry['scheme']}] {entry['status']}: "
                f"{len(entry['haus'])} HAUs, "
                f"{entry['token_sends']} token sends, "
                f"{entry['token_recvs']} token recvs{wall_s}"
            )
            for hau_id, ent in entry["haus"].items():
                if ent["commit_at"] is None:
                    lines.append(f"    {hau_id:<12} (no commit)")
                    continue
                start = ent["start_at"] if ent["start_at"] is not None else ent["commit_at"]
                lines.append(
                    f"    {hau_id:<12} {ent['mode'] or '-':<5} "
                    f"start={start:.3f}s commit={ent['commit_at']:.3f}s "
                    f"bytes={ent['bytes']}"
                )
            if entry["stalled_haus"]:
                lines.append(f"    stalled: {','.join(entry['stalled_haus'])}")
    if summary["failures"]:
        lines.append("failures:")
        for f in summary["failures"]:
            lines.append(f"  t={f['t']:.3f}s {f['kind']} target={f['target']}")
    if summary["recoveries"]:
        lines.append("recoveries (global rollback):")
        for r in summary["recoveries"]:
            total = r["total"]
            total_s = f"{total:.3f}s" if total is not None else "in flight"
            lines.append(
                f"  started t={r['started_at']:.3f}s dead=[{r['dead']}] total={total_s}"
            )
            if r["phases"]:
                phases = ", ".join(
                    f"{k}={v:.3f}s" for k, v in sorted(r["phases"].items())
                )
                lines.append(f"    phases: {phases}")
    if summary["baseline_recoveries"]:
        lines.append("baseline (1-safe) recoveries:")
        for r in summary["baseline_recoveries"]:
            lines.append(f"  t={r['t']:.3f}s {r['kind']} hau={r['hau']}")
    if summary["alerts"]:
        lines.append("application-aware decisions:")
        for a in summary["alerts"]:
            lines.append(f"  t={a['t']:.3f}s {a['kind']} {a['detail']}")
    replays = summary["replays"]
    if any(replays.values()):
        lines.append(
            "replays: "
            f"out={replays['out']} backlog={replays['backlog']} "
            f"source={replays['source']}"
        )
    if summary["critical_paths"]:
        lines.append("critical paths:")
        for p in summary["critical_paths"]:
            chain = " > ".join(h["kind"] for h in p["hops"])
            lines.append(
                f"  round {p['round']}: {p['seconds']:.3f}s"
                f" gated by {p['gating_hau']} [{chain}]"
            )
    if summary["stragglers"]:
        lines.append("stragglers:")
        for s in summary["stragglers"]:
            lines.append(
                f"  round {s['round']}: {s['hau']} {s['seconds']:.3f}s, "
                f"{s['ratio']:.2f}x the round median {s['median_seconds']:.3f}s"
            )
    return "\n".join(lines)


def write_summary(summary: dict[str, Any], path: str) -> None:
    """Write a summary dict as deterministic JSON."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
