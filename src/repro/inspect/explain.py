"""Turn a bundle diff into an attributed explanation.

Two renderers over the structure produced by
:func:`repro.inspect.diff.diff_bundles`:

* :func:`explain_diff` — the short story: which metrics moved, and
  which phase spans / HAUs / hop kinds the movement is attributed to.
  ``python -m repro.inspect explain`` prints these lines; CI runs it on
  the headline bundle for every PR, after the exact check
  (``benchmarks/check_regression.py``) has named the differing files,
  so its logs say *"latency is up because hau-3's disk-io grew 0.4s"*
  instead of bare hashes.
* :func:`render_diff_table` — the full fixed-width table view used by
  ``python -m repro.inspect diff``.

Both are pure functions of the diff dict — byte-deterministic output
for byte-identical inputs, same as everything else in this package.
"""

from __future__ import annotations

from typing import Any

from repro.harness.report import format_table

# Attribution lines ``explain`` prints (the table shows all of
# ``diff.DEFAULT_TOP``).
EXPLAIN_TOP = 5

# Metrics where a positive delta means the candidate got *worse*.
# (throughput is the lone higher-is-better headline quantity.)
HIGHER_IS_WORSE = frozenset(
    {
        "latency",
        "latency_p50",
        "latency_p95",
        "latency_p99",
        "critical_path_max",
        "critical_path_mean",
    }
)


def _g(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def _signed(value: float) -> str:
    return f"{value:+.6g}"


def _pct(delta: float, base: float | None) -> str:
    if not base:
        return ""
    return f", {delta / abs(base):+.1%}"


def _direction(metric: str, delta: float) -> str:
    if metric == "throughput":
        return "worse" if delta < 0 else "better"
    if metric in HIGHER_IS_WORSE:
        return "worse" if delta > 0 else "better"
    return "changed"


def _metric_lines(tables: dict[str, dict[str, Any]]) -> list[str]:
    lines = []
    for metric, entry in tables.items():
        delta = entry.get("delta")
        if not delta:
            continue
        lines.append(
            f"{metric}: {_g(entry['a'])} -> {_g(entry['b'])} "
            f"({_signed(delta)}{_pct(delta, entry['a'])}, {_direction(metric, delta)})"
        )
    return lines


def _check_kind(diff: dict[str, Any]) -> None:
    if diff.get("kind") != "bundle-diff":
        raise ValueError(f"not a diff produced by repro.inspect: kind={diff.get('kind')!r}")


def explain_diff(diff: dict[str, Any]) -> list[str]:
    """The attributed short story of a bundle diff, as printable lines.

    Empty movement yields a single "no difference" line rather than
    silence, so a gate trip always prints *something* attributable.
    """
    _check_kind(diff)
    if diff.get("identical"):
        return ["bundles are identical (determinism digests and alert sections match)"]
    lines: list[str] = []
    if not diff.get("same_workload", True):
        lines.append(
            "note: bundles come from different workloads "
            f"({_workload(diff['a'])} vs {_workload(diff['b'])}) — "
            "deltas compare apples to oranges"
        )
    lines.extend(_metric_lines(diff.get("metrics", {})))
    lines.extend(_metric_lines(diff.get("checkpoint", {})))
    movers = diff.get("top_movers", [])[:EXPLAIN_TOP]
    if movers:
        lines.append("attribution (delta = candidate - baseline):")
        for m in movers:
            lines.append(
                f"  {m['dimension']} {m['name']}: "
                f"{_g(m['a'])}s -> {_g(m['b'])}s ({_signed(m['delta'])}s)"
            )
    stragglers = diff.get("stragglers", {})
    for label in ("appeared", "disappeared"):
        flagged = stragglers.get(label, [])
        if flagged:
            lines.append(f"stragglers {label}: {', '.join(flagged)}")
    alert_lines = [
        f"  {name}: {_g(entry['a'])} -> {_g(entry['b'])} ({_signed(entry['delta'])})"
        for name, entry in diff.get("alerts", {}).items()
        if entry.get("delta")
    ]
    if alert_lines:
        lines.append("alert counts (slo:action):")
        lines.extend(alert_lines)
    if not lines:
        lines.append("no measurable difference between the two sides")
    return lines


def _workload(meta: dict[str, Any]) -> str:
    return f"{meta.get('app')}/{meta.get('scheme')}@{meta.get('n_checkpoints')}"


def _entry_row(name: str, entry: dict[str, Any]) -> list[str]:
    delta = entry.get("delta")
    return [
        name,
        _g(entry.get("a")),
        _g(entry.get("b")),
        _signed(delta) if delta is not None else "-",
    ]


def render_diff_table(diff: dict[str, Any]) -> str:
    """Full fixed-width rendering of a bundle diff (the ``diff`` subcommand)."""
    _check_kind(diff)
    a, b = diff["a"], diff["b"]
    blocks = [
        "\n".join(
            [
                f"bundle diff: a={str(a.get('bundle_id'))[:16]} "
                f"({_workload(a)} seed={a.get('seed')})",
                f"             b={str(b.get('bundle_id'))[:16]} "
                f"({_workload(b)} seed={b.get('seed')})",
                f"identical: {'yes' if diff.get('identical') else 'no'}"
                + ("" if diff.get("same_workload") else "  [different workloads]"),
            ]
        )
    ]
    metric_rows = [
        _entry_row(name, entry)
        for name, entry in {**diff.get("metrics", {}), **diff.get("checkpoint", {})}.items()
    ]
    blocks.append(
        format_table(["metric", "a", "b", "delta"], metric_rows, title="metrics")
    )
    phase_rows = [
        _entry_row(name, entry) for name, entry in diff.get("phases", {}).items()
    ]
    if phase_rows:
        blocks.append(
            format_table(
                ["phase", "a (s)", "b (s)", "delta (s)"],
                phase_rows,
                title="phase-span totals",
            )
        )
    movers = diff.get("top_movers", [])
    if movers:
        blocks.append(
            format_table(
                ["dimension", "name", "a (s)", "b (s)", "delta (s)"],
                [
                    [m["dimension"], m["name"], _g(m["a"]), _g(m["b"]), _signed(m["delta"])]
                    for m in movers
                ],
                title="top movers",
            )
        )
    alert_rows = [
        _entry_row(name, entry)
        for name, entry in diff.get("alerts", {}).items()
        if entry.get("delta")
    ]
    if alert_rows:
        blocks.append(
            format_table(
                ["slo:action", "a", "b", "delta"],
                alert_rows,
                title="alert counts",
            )
        )
    stragglers = diff.get("stragglers", {})
    straggler_lines = [
        f"stragglers {label}: {', '.join(stragglers[label])}"
        for label in ("appeared", "disappeared")
        if stragglers.get(label)
    ]
    if straggler_lines:
        blocks.append("\n".join(straggler_lines))
    return "\n\n".join(blocks)
