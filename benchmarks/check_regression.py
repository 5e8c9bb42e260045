#!/usr/bin/env python3
"""CI throughput/latency regression gate for the headline bench.

Compares a freshly produced ``BENCH_headline.json`` (written by
``bench_headline.py`` when ``REPRO_ARTIFACT_DIR`` is set) against the
checked-in ``benchmarks/BENCH_baseline.json``.  The simulation is
deterministic, so per-cell numbers should match the baseline exactly;
the tolerances absorb intentional model changes small enough not to
matter.

Two gates, each per cell:

* **throughput** — drops more than ``--tolerance`` (default 15%) below
  the baseline fail;
* **latency** — increases more than ``--latency-tolerance`` (default
  15%) above the baseline fail.  Baseline cells without a ``latency``
  value are noted and skipped, so the gate is backward compatible with
  throughput-only baselines.

A third, **warn-only** gate covers the kernel microbenchmark
(``BENCH_kernel.json``, written next to the headline report): wall-clock
growth or ``events_per_sec`` drop beyond ``--wall-tolerance`` (default
50% — host timing varies wildly across runners) prints a warning but
never changes the exit status.  ``events_popped`` drift, by contrast, is
deterministic and *does* fail: the engine doing a different amount of
work for the same config means the event order changed.

A fourth, also **warn-only**, gate tracks each cell's
``critical_path_seconds`` (the slowest per-round checkpoint critical
path, reconstructed from the cell's trace): growth beyond
``--critical-path-tolerance`` (default 25%) prints a warning.  The
quantity is deterministic, but it measures the *checkpoint wave's*
shape rather than the paper's headline throughput/latency, so it warns
rather than fails while the profiler is young.

A fifth, **warn-only**, gate covers the kernel scaling benchmark
(``BENCH_kernel_scaling.json``, written by ``bench_kernel_scaling.py``)
against the committed ``benchmarks/BENCH_scaling_baseline.json``.  It
watches, per size: ``tuples_per_sec`` dropping beyond
``--wall-tolerance``, ``events_popped`` drift, and the construction
share — ``build_seconds / wall_seconds``, set-up per second of run —
growing beyond ``--build-tolerance`` (default 0.5; construction is pure
overhead, and a superlinear build shows up here long before it shows in
the run rates).  All of it warns rather than fails: the rates are host
timing, and the synthetic chain's event count is not digest-pinned.

A sixth, **warn-only**, gate covers the monitored headline run
(``ALERTS_headline.json``, written by ``bench_headline.py``) against the
committed ``benchmarks/ALERTS_baseline.json``: any drift in the
fired/resolved alert counts (total or per SLO kind), the alert-log
length or the number of health-timeline transitions prints a warning.
The counts are deterministic for a fixed config, so drift is a real
behaviour change — but an intentional SLO-bound tweak produces the same
signature, so the gate warns rather than fails while the monitoring
plane is young.

Usage::

    python benchmarks/check_regression.py artifacts/BENCH_headline.json \
        [--baseline benchmarks/BENCH_baseline.json] [--tolerance 0.15] \
        [--latency-tolerance 0.15] [--kernel artifacts/BENCH_kernel.json] \
        [--wall-tolerance 0.5] [--build-tolerance 0.5] \
        [--alerts artifacts/ALERTS_headline.json] \
        [--alerts-baseline benchmarks/ALERTS_baseline.json]

Every gate runs every time: a tripped throughput gate never hides the
latency, kernel or critical-path verdicts — the FAIL summary lists all
failing gates in one run.  On any trip, an **attributed explanation**
follows (via ``repro.inspect``): the per-cell top movers from the
report diff, plus — when both the candidate bundle (``--bundle``,
default ``BUNDLE_headline`` next to the current report) and the
baseline bundle (``--baseline-bundle``, default
``benchmarks/BUNDLE_baseline``) exist — the phase-span / HAU
attribution from the bundle diff.  ``--no-explain`` suppresses both.

Exit status: 0 = no regression, 1 = throughput regression / mode
mismatch / events_popped drift, 2 = bad invocation / unreadable input,
3 = latency-only regression (throughput held; CI can choose to warn
instead of fail), 4 = a report parses but one of its cells is missing a
gate field (``app`` / ``scheme`` / ``n_checkpoints`` / ``throughput``)
— the baseline or report needs regenerating, nothing was compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_baseline.json"

Cell = tuple[str, str, int]  # (app, scheme, n_checkpoints)

EXIT_OK = 0
EXIT_THROUGHPUT = 1
EXIT_BAD_INVOCATION = 2
EXIT_LATENCY = 3
EXIT_BAD_BASELINE = 4

# Every cell must carry these for the gates to have anything to compare.
REQUIRED_CELL_FIELDS = ("app", "scheme", "n_checkpoints", "throughput")


class MalformedReportError(ValueError):
    """A report parsed, but a cell is missing/mistyping a gate field."""


def validate_cells(report: dict, path: str) -> None:
    """Fail loudly (not with a KeyError traceback) on malformed cells."""
    for i, c in enumerate(report["cells"]):
        if not isinstance(c, dict):
            raise MalformedReportError(
                f"{path}: cells[{i}] is not an object — regenerate the report"
            )
        missing = [f for f in REQUIRED_CELL_FIELDS if f not in c]
        if missing:
            raise MalformedReportError(
                f"{path}: cells[{i}] is missing gate field(s) {', '.join(missing)} "
                f"(has: {', '.join(sorted(c)) or 'nothing'}) — regenerate the "
                "report with bench_headline.py, or restore the committed baseline"
            )
        try:
            int(c["n_checkpoints"])
            float(c["throughput"])
        except (TypeError, ValueError) as exc:
            raise MalformedReportError(
                f"{path}: cells[{i}] ({c.get('app')}/{c.get('scheme')}) has a "
                f"non-numeric gate field: {exc}"
            ) from exc


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if "cells" not in report or "mode" not in report:
        raise ValueError(f"{path}: not a BENCH_headline report (missing 'cells'/'mode')")
    return report


def cell_values(report: dict, field: str) -> dict[Cell, float]:
    """Per-cell values of one field; cells lacking the field are omitted."""
    out: dict[Cell, float] = {}
    for c in report["cells"]:
        if field in c:
            out[(c["app"], c["scheme"], int(c["n_checkpoints"]))] = float(c[field])
    return out


def cell_throughput(report: dict) -> dict[Cell, float]:
    return cell_values(report, "throughput")


def compare(
    current: dict,
    baseline: dict,
    tolerance: float,
    latency_tolerance: float = 0.15,
) -> tuple[list[str], list[str], list[str]]:
    """Return (throughput_regressions, latency_regressions, notes).

    Non-empty throughput regressions mean exit 1; latency regressions
    alone mean exit 3.
    """
    regressions: list[str] = []
    lat_regressions: list[str] = []
    notes: list[str] = []
    if current["mode"] != baseline["mode"]:
        regressions.append(
            f"measurement mode mismatch: current={current['mode']!r} "
            f"baseline={baseline['mode']!r} (numbers are not comparable)"
        )
        return regressions, lat_regressions, notes

    cur = cell_throughput(current)
    base = cell_throughput(baseline)
    cur_lat = cell_values(current, "latency")
    base_lat = cell_values(baseline, "latency")
    for key in sorted(base):
        app, scheme, n = key
        b = base[key]
        if key not in cur:
            regressions.append(f"{app}/{scheme}@{n}: cell missing from current report")
            continue
        c = cur[key]
        if b <= 0:
            # note-and-carry-on: a zero-throughput baseline cell must not
            # swallow the cell's latency gate (all gates report, always)
            notes.append(f"{app}/{scheme}@{n}: baseline throughput {b:g}, skipped")
        else:
            delta = c / b - 1.0
            if delta < -tolerance:
                regressions.append(
                    f"{app}/{scheme}@{n}: throughput {c:g} vs baseline {b:g} ({delta:+.1%})"
                )
            elif abs(delta) > 1e-9:
                notes.append(f"{app}/{scheme}@{n}: {delta:+.1%}")
        # latency gate (higher is worse)
        bl = base_lat.get(key)
        if bl is None:
            notes.append(f"{app}/{scheme}@{n}: baseline has no latency, gate skipped")
            continue
        if bl <= 0:
            notes.append(f"{app}/{scheme}@{n}: baseline latency {bl:g}, gate skipped")
            continue
        cl = cur_lat.get(key)
        if cl is None:
            lat_regressions.append(
                f"{app}/{scheme}@{n}: latency missing from current report"
            )
            continue
        lat_delta = cl / bl - 1.0
        if lat_delta > latency_tolerance:
            lat_regressions.append(
                f"{app}/{scheme}@{n}: latency {cl:g} vs baseline {bl:g} ({lat_delta:+.1%})"
            )
        elif abs(lat_delta) > 1e-9:
            notes.append(f"{app}/{scheme}@{n}: latency {lat_delta:+.1%}")
    for key in sorted(set(cur) - set(base)):
        app, scheme, n = key
        notes.append(f"{app}/{scheme}@{n}: new cell (no baseline), throughput {cur[key]:g}")
    return regressions, lat_regressions, notes


def compare_critical_path(
    current: dict,
    baseline: dict,
    tolerance: float,
) -> list[str]:
    """Warn-only: per-cell critical-path seconds growing past tolerance.

    Cells absent from either report, or with a non-positive baseline
    (no round completed in that cell), are skipped silently — the gate
    is backward compatible with baselines that predate the profiler.
    """
    warnings: list[str] = []
    cur = cell_values(current, "critical_path_seconds")
    base = cell_values(baseline, "critical_path_seconds")
    for key in sorted(base):
        app, scheme, n = key
        b = base[key]
        c = cur.get(key)
        if c is None or b <= 0.0:
            continue
        delta = c / b - 1.0
        if delta > tolerance:
            warnings.append(
                f"{app}/{scheme}@{n}: critical path {c:g}s vs baseline {b:g}s "
                f"({delta:+.1%}), beyond --critical-path-tolerance "
                f"{tolerance:.0%} (warn-only)"
            )
    return warnings


def compare_kernel(
    kernel: dict,
    baseline_kernel: dict,
    wall_tolerance: float,
) -> tuple[list[str], list[str]]:
    """Return (hard_failures, warnings) for the kernel microbenchmark.

    Wall-clock / events-per-second are host-dependent → warn-only.
    ``events_popped`` is part of the determinism contract → hard.
    """
    failures: list[str] = []
    warnings: list[str] = []
    if kernel.get("mode") != baseline_kernel.get("mode"):
        warnings.append(
            f"kernel: mode mismatch (current={kernel.get('mode')!r} "
            f"baseline={baseline_kernel.get('mode')!r}), comparison skipped"
        )
        return failures, warnings
    b_popped = baseline_kernel.get("events_popped")
    c_popped = kernel.get("events_popped")
    if b_popped is not None and c_popped is not None and b_popped != c_popped:
        failures.append(
            f"kernel: events_popped {c_popped} vs baseline {b_popped} — the "
            "engine's work changed for an identical config (event-order drift)"
        )
    for field_name, worse_when in (("wall_seconds", "higher"), ("events_per_sec", "lower")):
        b = baseline_kernel.get(field_name)
        c = kernel.get(field_name)
        if not b or c is None:
            continue
        delta = c / b - 1.0
        regressed = delta > wall_tolerance if worse_when == "higher" else delta < -wall_tolerance
        if regressed:
            warnings.append(
                f"kernel: {field_name} {c:g} vs baseline {b:g} ({delta:+.1%}), "
                f"beyond --wall-tolerance {wall_tolerance:.0%} (warn-only)"
            )
    return failures, warnings


def compare_scaling(
    scaling: dict,
    baseline_scaling: dict,
    wall_tolerance: float,
    build_tolerance: float = 0.5,
) -> list[str]:
    """Warn-only verdicts for the kernel scaling benchmark.

    Per size: rate drops, ``events_popped`` drift and growth of the
    build:run ratio (``build_seconds / wall_seconds``) warn — nothing in
    this gate can change the exit status.
    """
    warnings: list[str] = []
    if scaling.get("mode") != baseline_scaling.get("mode"):
        warnings.append(
            f"scaling: mode mismatch (current={scaling.get('mode')!r} "
            f"baseline={baseline_scaling.get('mode')!r}), comparison skipped"
        )
        return warnings

    def by_size(report: dict) -> dict[int, dict]:
        return {c["haus"]: c for c in report.get("cells", [])}

    cur, base = by_size(scaling), by_size(baseline_scaling)
    for haus in sorted(base):
        b, c = base[haus], cur.get(haus)
        if c is None:
            warnings.append(f"scaling: {haus} HAUs missing from current report (warn-only)")
            continue
        if b.get("events_popped") != c.get("events_popped"):
            warnings.append(
                f"scaling: {haus} HAUs events_popped "
                f"{c.get('events_popped')} vs baseline {b.get('events_popped')} "
                "(warn-only: the synthetic chain is not digest-pinned)"
            )
        b_rate, c_rate = b.get("tuples_per_sec"), c.get("tuples_per_sec")
        if b_rate and c_rate is not None:
            delta = c_rate / b_rate - 1.0
            if delta < -wall_tolerance:
                warnings.append(
                    f"scaling: {haus} HAUs tuples_per_sec "
                    f"{c_rate:,.0f} vs baseline {b_rate:,.0f} ({delta:+.1%}), "
                    f"beyond --wall-tolerance {wall_tolerance:.0%} (warn-only)"
                )
        if all(cell.get("build_seconds") and cell.get("wall_seconds") for cell in (b, c)):
            b_ratio = b["build_seconds"] / b["wall_seconds"]
            c_ratio = c["build_seconds"] / c["wall_seconds"]
            growth = c_ratio / b_ratio - 1.0
            if growth > build_tolerance:
                warnings.append(
                    f"scaling: {haus} HAUs build:run ratio "
                    f"{c_ratio:.2f} vs baseline {b_ratio:.2f} ({growth:+.1%}), "
                    f"beyond --build-tolerance {build_tolerance:.0%} (warn-only)"
                )
    return warnings


def compare_alerts(
    alerts: dict,
    baseline_alerts: dict,
) -> list[str]:
    """Warn-only verdicts for the monitored headline run's alert counts.

    Everything compared here is deterministic for a fixed config, but an
    intentional SLO/bound change legitimately moves all of it — nothing
    in this gate can change the exit status.
    """
    warnings: list[str] = []
    if alerts.get("mode") != baseline_alerts.get("mode"):
        warnings.append(
            f"alerts: mode mismatch (current={alerts.get('mode')!r} "
            f"baseline={baseline_alerts.get('mode')!r}), comparison skipped"
        )
        return warnings
    b_sum = baseline_alerts.get("summary") or {}
    c_sum = alerts.get("summary") or {}
    for field_name in ("fired", "resolved", "active"):
        b, c = b_sum.get(field_name), c_sum.get(field_name)
        if b is not None and c is not None and b != c:
            warnings.append(
                f"alerts: {field_name} {c} vs baseline {b} (warn-only: "
                "deterministic, so this is a behaviour or SLO-bound change)"
            )
    b_by = b_sum.get("by_slo") or {}
    c_by = c_sum.get("by_slo") or {}
    for slo in sorted(set(b_by) | set(c_by)):
        if b_by.get(slo) != c_by.get(slo):
            warnings.append(
                f"alerts: {slo} {c_by.get(slo)} vs baseline {b_by.get(slo)} (warn-only)"
            )
    for field_name in ("ticks", "log_length", "health_transitions"):
        b, c = baseline_alerts.get(field_name), alerts.get(field_name)
        if b is not None and c is not None and b != c:
            warnings.append(f"alerts: {field_name} {c} vs baseline {b} (warn-only)")
    return warnings


def _inspect_modules():
    """Lazily import repro.inspect (with a src/ fallback for bare checkouts).

    Returns ``None`` when the package cannot be imported — the gate then
    degrades to unattributed numbers instead of crashing.
    """
    try:
        import repro.inspect  # noqa: F401
    except ImportError:
        src = Path(__file__).resolve().parent.parent / "src"
        if src.is_dir():
            sys.path.insert(0, str(src))
    try:
        from repro.inspect import diff_bundles, diff_reports, read_bundle
        from repro.inspect.explain import explain_diff
    except ImportError:
        return None
    return diff_reports, diff_bundles, read_bundle, explain_diff


def explain_trip(
    current: dict,
    baseline: dict,
    bundle: str | None,
    baseline_bundle: str | None,
    limit: int = 5,
) -> list[str]:
    """Attributed explanation lines for a tripped gate (best effort).

    Always tries the report-level diff (cell x metric top movers); when
    both bundle directories exist, adds the bundle-level attribution
    (phase spans, HAUs, critical-path hops).  Any failure inside the
    explainer becomes a parenthetical line, never a crash — explanations
    decorate the gate, they must not be able to flip it.
    """
    mods = _inspect_modules()
    if mods is None:
        return ["(repro.inspect unavailable; no attribution)"]
    diff_reports, diff_bundles, read_bundle, explain_diff = mods
    lines: list[str] = []
    try:
        lines.extend(explain_diff(diff_reports(baseline, current), limit=limit))
    except Exception as exc:  # noqa: BLE001 — explainer must never flip the gate
        lines.append(f"(report attribution failed: {exc})")
    if bundle and baseline_bundle and Path(bundle).is_dir() and Path(baseline_bundle).is_dir():
        try:
            diff = diff_bundles(read_bundle(baseline_bundle), read_bundle(bundle))
            lines.append(f"bundle attribution ({baseline_bundle} -> {bundle}):")
            lines.extend("  " + line for line in explain_diff(diff, limit=limit))
        except Exception as exc:  # noqa: BLE001
            lines.append(f"(bundle attribution failed: {exc})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh BENCH_headline.json to check")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="max allowed fractional throughput drop (default 0.15)")
    parser.add_argument("--latency-tolerance", type=float, default=0.15,
                        help="max allowed fractional latency increase (default 0.15)")
    parser.add_argument("--kernel", default=None,
                        help="BENCH_kernel.json to check (default: sibling of current)")
    parser.add_argument("--wall-tolerance", type=float, default=0.5,
                        help="warn-only threshold for kernel wall-clock growth / "
                             "events-per-second drop (default 0.5)")
    parser.add_argument("--critical-path-tolerance", type=float, default=0.25,
                        help="warn-only threshold for per-cell checkpoint "
                             "critical-path growth (default 0.25)")
    parser.add_argument("--scaling", default=None,
                        help="BENCH_kernel_scaling.json to check "
                             "(default: sibling of current)")
    parser.add_argument("--scaling-baseline",
                        default=str(DEFAULT_BASELINE.parent / "BENCH_scaling_baseline.json"),
                        help="committed scaling baseline "
                             "(default: benchmarks/BENCH_scaling_baseline.json)")
    parser.add_argument("--build-tolerance", type=float, default=0.5,
                        help="warn-only threshold for per-cell growth of the "
                             "scaling bench's build_seconds / wall_seconds "
                             "ratio (default 0.5)")
    parser.add_argument("--alerts", default=None,
                        help="ALERTS_headline.json to check (default: sibling "
                             "of current)")
    parser.add_argument("--alerts-baseline",
                        default=str(DEFAULT_BASELINE.parent / "ALERTS_baseline.json"),
                        help="committed alert-count baseline "
                             "(default: benchmarks/ALERTS_baseline.json)")
    parser.add_argument("--bundle", default=None,
                        help="candidate RunBundle directory for attributed "
                             "explanations (default: BUNDLE_headline next to current)")
    parser.add_argument("--baseline-bundle", default=None,
                        help="baseline RunBundle directory "
                             "(default: benchmarks/BUNDLE_baseline)")
    parser.add_argument("--no-explain", action="store_true",
                        help="suppress attributed explanations on gate trips")
    args = parser.parse_args(argv)

    try:
        current = load_report(args.current)
        baseline = load_report(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INVOCATION
    try:
        validate_cells(current, args.current)
        validate_cells(baseline, args.baseline)
    except MalformedReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_BASELINE

    regressions, lat_regressions, notes = compare(
        current, baseline, args.tolerance, args.latency_tolerance
    )
    notes.extend(
        compare_critical_path(current, baseline, args.critical_path_tolerance)
    )

    # kernel microbenchmark (wall-clock warn-only; events_popped hard)
    kernel_path = args.kernel or str(Path(args.current).parent / "BENCH_kernel.json")
    baseline_kernel = baseline.get("kernel")
    if baseline_kernel and Path(kernel_path).is_file():
        try:
            with open(kernel_path, encoding="utf-8") as fh:
                kernel = json.load(fh)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INVOCATION
        kernel_failures, kernel_warnings = compare_kernel(
            kernel, baseline_kernel, args.wall_tolerance
        )
        regressions.extend(kernel_failures)
        notes.extend(kernel_warnings)
    elif baseline_kernel:
        notes.append(f"kernel: no {kernel_path}, kernel gate skipped")

    # kernel scaling benchmark (entirely warn-only; see module docstring)
    scaling_path = args.scaling or str(
        Path(args.current).parent / "BENCH_kernel_scaling.json"
    )
    if Path(args.scaling_baseline).is_file() and Path(scaling_path).is_file():
        try:
            with open(scaling_path, encoding="utf-8") as fh:
                scaling = json.load(fh)
            with open(args.scaling_baseline, encoding="utf-8") as fh:
                baseline_scaling = json.load(fh)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INVOCATION
        notes.extend(compare_scaling(
            scaling, baseline_scaling, args.wall_tolerance, args.build_tolerance,
        ))
    elif Path(args.scaling_baseline).is_file():
        notes.append(f"scaling: no {scaling_path}, scaling gate skipped")

    # monitored headline run (entirely warn-only; see module docstring)
    alerts_path = args.alerts or str(Path(args.current).parent / "ALERTS_headline.json")
    if Path(args.alerts_baseline).is_file() and Path(alerts_path).is_file():
        try:
            with open(alerts_path, encoding="utf-8") as fh:
                alerts = json.load(fh)
            with open(args.alerts_baseline, encoding="utf-8") as fh:
                baseline_alerts = json.load(fh)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INVOCATION
        notes.extend(compare_alerts(alerts, baseline_alerts))
    elif Path(args.alerts_baseline).is_file():
        notes.append(f"alerts: no {alerts_path}, alert gate skipped")
    print(f"regression check: {len(cell_throughput(baseline))} baseline cells, "
          f"throughput tolerance {args.tolerance:.0%}, "
          f"latency tolerance {args.latency_tolerance:.0%}")
    for line in notes:
        print(f"  note: {line}")
    if not regressions and not lat_regressions:
        print("OK: no throughput or latency regression")
        return EXIT_OK

    # every failing gate in one report (never just the first tripped one),
    # then the attributed explanation of *why* the numbers moved
    print(
        f"FAIL: {len(regressions)} hard regression(s), "
        f"{len(lat_regressions)} latency regression(s)"
    )
    for line in regressions:
        print(f"  regression: {line}")
    for line in lat_regressions:
        print(f"  latency regression: {line}")
    if not args.no_explain:
        bundle = args.bundle or str(Path(args.current).parent / "BUNDLE_headline")
        baseline_bundle = args.baseline_bundle or str(
            Path(args.baseline).resolve().parent / "BUNDLE_baseline"
        )
        for line in explain_trip(current, baseline, bundle, baseline_bundle):
            print(f"  explain: {line}")
    return EXIT_THROUGHPUT if regressions else EXIT_LATENCY


if __name__ == "__main__":
    sys.exit(main())
