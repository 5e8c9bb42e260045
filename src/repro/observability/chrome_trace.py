"""Chrome trace-event JSON export (Perfetto / ``chrome://tracing``).

Renders a reconstructed :class:`~repro.observability.timeline.Timeline` in the
`trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_:

* ``pid 0`` is the global/scheme track: one thread per checkpoint round
  holding the round span and its critical-path hops, plus a thread for
  failures and recoveries.
* Each HAU gets its own ``pid`` (sorted HAU id order, starting at 1),
  with one thread per round carrying the per-phase checkpoint spans and
  a lifecycle thread for restarts and recovery phases.
* Timestamps are simulated seconds converted to integer microseconds
  (``ts``/``dur``), ``ph: "X"`` for spans, ``"i"`` for instants and
  ``"M"`` for process/thread metadata.

Output is deterministic: events are sorted by a total key and
serialised with sorted keys and compact separators, so two same-seed
runs export byte-identical files (asserted in tests).
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.observability.critical_path import critical_paths
from repro.observability.timeline import build_timeline

_JSON_KW = dict(sort_keys=True, separators=(",", ":"), allow_nan=False)

# tid layout inside each pid: rounds use their own round id as tid
# (shifted to keep 0/1 free), so overlapping rounds never share a track.
_TID_LIFECYCLE = 0
_ROUND_TID_BASE = 8


def _us(t: float) -> int:
    """Simulated seconds -> integer microseconds (trace-event ``ts``)."""
    return int(round(t * 1e6))


def _dur(start: float, end: float) -> int:
    return max(0, _us(end) - _us(start))


def _meta(pid: int, tid: int, name: str, value: str) -> dict[str, Any]:
    return {
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "name": name,
        "args": {"name": value},
    }


def _span(
    pid: int, tid: int, name: str, cat: str, start: float, end: float,
    args: dict[str, Any] | None = None,
) -> dict[str, Any]:
    ev: dict[str, Any] = {
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "name": name,
        "cat": cat,
        "ts": _us(start),
        "dur": _dur(start, end),
    }
    if args:
        ev["args"] = dict(sorted(args.items()))
    return ev


def _instant(
    pid: int, tid: int, name: str, cat: str, t: float,
    args: dict[str, Any] | None = None,
) -> dict[str, Any]:
    ev: dict[str, Any] = {
        "ph": "i",
        "pid": pid,
        "tid": tid,
        "name": name,
        "cat": cat,
        "ts": _us(t),
        "s": "g",  # global scope: renders as a full-height marker
    }
    if args:
        ev["args"] = dict(sorted(args.items()))
    return ev


def to_chrome_trace(source: Any, include_critical_path: bool = True) -> dict[str, Any]:
    """Build the trace-event JSON object for one run's trace."""
    tl = build_timeline(source)
    hau_ids = tl.hau_ids()
    scheme_pid = 0
    pid_of = {h: i + 1 for i, h in enumerate(hau_ids)}
    scheme_label = tl.scheme or "scheme"

    out: list[dict[str, Any]] = []
    used_tids: dict[int, set[int]] = {}

    def touch(pid: int, tid: int) -> None:
        used_tids.setdefault(pid, set()).add(tid)

    # -- global/scheme track ----------------------------------------------
    for wave in tl.rounds:
        tid = _ROUND_TID_BASE + wave.round_id
        touch(scheme_pid, tid)
        if wave.completed_at is not None:
            out.append(
                _span(
                    scheme_pid, tid, f"round {wave.round_id}", "round",
                    wave.started_at, wave.completed_at,
                    {"haus": len(wave.haus), "round": wave.round_id},
                )
            )
        else:
            out.append(
                _instant(
                    scheme_pid, tid, f"round {wave.round_id} (incomplete)",
                    "round", wave.started_at,
                    {"incomplete_haus": ",".join(wave.stalled_haus())},
                )
            )

    if include_critical_path:
        for path in critical_paths(tl):
            tid = _ROUND_TID_BASE + path.round_id
            touch(scheme_pid, tid)
            for hop in path.hops:
                out.append(
                    _span(
                        scheme_pid, tid, hop.kind, "critical-path",
                        hop.start, hop.end, {"subject": hop.subject},
                    )
                )

    touch(scheme_pid, _TID_LIFECYCLE)
    for e in tl.events:
        if e.kind == "failure.inject":
            out.append(
                _instant(
                    scheme_pid, _TID_LIFECYCLE, f"failure {e.subject}",
                    "failure", e.t, {"kind": str(e.get("kind", ""))},
                )
            )
        elif e.kind == "failure.detected":
            out.append(
                _instant(
                    scheme_pid, _TID_LIFECYCLE, "failure detected",
                    "failure", e.t, {"dead": str(e.get("dead", ""))},
                )
            )
    for rec in tl.recoveries:
        if rec.started_at is not None and rec.complete:
            out.append(
                _span(
                    scheme_pid, _TID_LIFECYCLE, "recovery", "recovery",
                    rec.started_at, rec.done_at,
                    {"dead": rec.dead, "cut_round": rec.cut_round},
                )
            )
        if rec.completed_at is not None and rec.reconnect_seconds > 0.0:
            out.append(
                _span(
                    scheme_pid, _TID_LIFECYCLE, "reconnect", "recovery",
                    rec.completed_at - rec.reconnect_seconds, rec.completed_at,
                )
            )

    # -- per-HAU tracks ----------------------------------------------------
    for wave in tl.rounds:
        tid = _ROUND_TID_BASE + wave.round_id
        for hau_id in sorted(wave.haus):
            pid = pid_of[hau_id]
            touch(pid, tid)
            for span in wave.haus[hau_id].phase_spans():
                out.append(
                    _span(
                        pid, tid, span.name, "checkpoint",
                        span.start, span.end, {"round": wave.round_id},
                    )
                )

    for e in tl.events:
        if e.kind == "hau.start" and e.subject in pid_of:
            pid = pid_of[e.subject]
            touch(pid, _TID_LIFECYCLE)
            out.append(
                _instant(
                    pid, _TID_LIFECYCLE, "hau start", "lifecycle", e.t,
                    {"node": str(e.get("node", ""))},
                )
            )
    for rec in tl.recoveries:
        for hau_id in sorted(rec.haus):
            pid = pid_of.get(hau_id)
            if pid is None:
                continue
            touch(pid, _TID_LIFECYCLE)
            for span in rec.haus[hau_id].phase_spans():
                out.append(
                    _span(pid, _TID_LIFECYCLE, span.name, "recovery",
                          span.start, span.end)
                )

    # -- metadata ----------------------------------------------------------
    meta: list[dict[str, Any]] = []
    meta.append(_meta(scheme_pid, 0, "process_name", scheme_label))
    meta.append(
        {
            "ph": "M",
            "pid": scheme_pid,
            "tid": 0,
            "name": "process_sort_index",
            "args": {"sort_index": scheme_pid},
        }
    )
    for hau_id in hau_ids:
        pid = pid_of[hau_id]
        meta.append(_meta(pid, 0, "process_name", hau_id))
        meta.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_sort_index",
                "args": {"sort_index": pid},
            }
        )
    for pid in sorted(used_tids):
        for tid in sorted(used_tids[pid]):
            if tid == _TID_LIFECYCLE:
                label = "lifecycle" if pid != scheme_pid else "events"
            else:
                label = f"round {tid - _ROUND_TID_BASE}"
            meta.append(_meta(pid, tid, "thread_name", label))

    def sort_key(ev: dict[str, Any]) -> tuple:
        return (
            ev["pid"],
            ev["tid"],
            ev.get("ts", -1),
            -ev.get("dur", 0),
            ev["ph"],
            ev["name"],
        )

    events = meta + sorted(out, key=sort_key)
    return {"displayTimeUnit": "ms", "traceEvents": events}


def dumps_chrome_trace(trace: dict[str, Any]) -> str:
    """Canonical single-line JSON text (trailing newline included)."""
    return json.dumps(trace, **_JSON_KW) + "\n"


def write_chrome_trace(source: Any, path_or_file: str | IO[str]) -> int:
    """Export a trace to ``path``; returns the trace-event count."""
    trace = (
        source
        if isinstance(source, dict) and "traceEvents" in source
        else to_chrome_trace(source)
    )
    text = dumps_chrome_trace(trace)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return len(trace["traceEvents"])
