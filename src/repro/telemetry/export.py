"""Telemetry export: the deterministic JSON snapshot.

The JSON snapshot carries every registry metric (canonical ordering:
sorted by name then labels) and, when a sampler is attached, the per-HAU
time series.  Every value is simulation-derived, keys are sorted and
floats rendered by ``repr`` — so two runs with the same seed produce
*byte-identical* snapshots (the same contract as the trace JSONL export,
and what CI's telemetry artifact relies on).  The text holds one metric
and one ``(series, hau)`` row per line: line-diffable, and every row
goes through the C encoder (``indent=`` would select the pure-Python
one).
"""

from __future__ import annotations

import json
from typing import Any

from repro.telemetry.registry import MetricRegistry

_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def snapshot(
    registry: MetricRegistry,
    sampler=None,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Fold a registry (and optional sampler) into a JSON-ready dict."""
    snap: dict[str, Any] = {
        "meta": dict(meta or {}),
        "metrics": [m.as_dict() for m in registry.metrics()],
        "series": sampler.series_dict() if sampler is not None else {},
    }
    return snap


def dumps_snapshot(snap: dict[str, Any]) -> str:
    """Canonical JSON text for a snapshot (trailing newline included)."""
    series = []
    for metric, per_hau in sorted(snap["series"].items()):
        rows = ",\n".join(
            f"{_encode(hau)}: {_encode(points)}" for hau, points in sorted(per_hau.items())
        )
        series.append(f"{_encode(metric)}: {{\n{rows}\n}}")
    return "\n".join([
        "{",
        f'"meta": {_encode(snap["meta"])},',
        '"metrics": [',
        ",\n".join(map(_encode, snap["metrics"])),
        "],",
        '"series": {',
        ",\n".join(series),
        "}",
        "}",
        "",
    ])


def write_snapshot(snap: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_snapshot(snap))


def read_snapshot(path: str) -> dict[str, Any]:
    """Parse a snapshot file back."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
