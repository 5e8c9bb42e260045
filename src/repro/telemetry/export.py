"""Telemetry exporters: deterministic JSON snapshot + Prometheus text.

The JSON snapshot carries every registry metric (canonical ordering:
sorted by name then labels) and, when a sampler is attached, the per-HAU
time series.  Every value is simulation-derived, keys are sorted and
floats rendered by ``repr`` — so two runs with the same seed produce
*byte-identical* snapshots (the same contract as the trace JSONL export,
and what CI's telemetry artifact relies on).  The text holds one metric
and one ``(series, hau)`` row per line: line-diffable, and every row
goes through the C encoder (``indent=`` would select the pure-Python
one).

The Prometheus export renders the standard text exposition format
(counters and gauges verbatim; histograms as summaries with quantile
labels plus ``_sum``/``_count``), so a snapshot can be scraped or pushed
without any client library.
"""

from __future__ import annotations

import json
from typing import Any

from repro.telemetry.registry import Histogram, RegistryLike

_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def snapshot(
    registry: RegistryLike,
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


# -- Prometheus text exposition ------------------------------------------------


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash, double
    quote and newline (in that order, so the escapes themselves survive)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """HELP text escaping per the exposition format (no quote escaping)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


# ``# HELP`` docstrings for the metric families whose meaning is not
# obvious from the ``ms_<subsystem>_<what>`` name alone — today the
# monitoring plane's alert/window families (see repro.monitor).
HELP_TEXT = {
    "ms_alerts_fired_total": "SLO burn-rate alerts fired, by SLO kind",
    "ms_alerts_resolved_total": "SLO burn-rate alerts resolved, by SLO kind",
    "ms_alerts_active": "currently-firing SLO alerts",
    "ms_monitor_ticks_total": "monitoring-plane window evaluations",
    "ms_monitor_samples_total": "SLO samples folded into burn-rate windows",
}


def _label_str(labels: dict[str, str] | tuple, extra: dict[str, str] | None = None) -> str:
    pairs = dict(labels)
    if extra:
        pairs.update(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(pairs.items())
    )
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: RegistryLike) -> str:
    """The registry in Prometheus text format (one trailing newline).

    Histograms are exposed as summaries: ``name{quantile="0.5"}`` per
    tracked percentile, plus ``name_sum`` and ``name_count``.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def _header(name: str, kind: str) -> None:
        help_text = HELP_TEXT.get(name)
        if help_text is not None:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        typed.add(name)

    for metric in registry.metrics():
        if isinstance(metric, Histogram):
            if metric.name not in typed:
                _header(metric.name, "summary")
            for key, value in sorted(metric.quantiles().items()):
                q = int(key[1:]) / 100.0
                lines.append(
                    f"{metric.name}{_label_str(metric.labels, {'quantile': repr(q)})}"
                    f" {_fmt_value(value)}"
                )
            lines.append(
                f"{metric.name}_sum{_label_str(metric.labels)} {_fmt_value(metric.sum)}"
            )
            lines.append(
                f"{metric.name}_count{_label_str(metric.labels)} {metric.count}"
            )
        else:
            if metric.name not in typed:
                _header(metric.name, metric.kind)
            lines.append(
                f"{metric.name}{_label_str(metric.labels)} {_fmt_value(metric.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")
