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

One exact count rides along: the kernel microbenchmark's
``events_popped`` (``BENCH_kernel.json``, written next to the headline
report) must equal the baseline's ``kernel.events_popped`` — the engine
doing a different amount of work for the same config means the event
order changed, so drift *fails*.  Nothing here judges host seconds:
``perf/`` (``python -m perf.run`` / ``perf.compare``) is the one
host-time instrument.

Usage::

    python benchmarks/check_regression.py artifacts/BENCH_headline.json \
        [--baseline benchmarks/BENCH_baseline.json] [--tolerance 0.15] \
        [--latency-tolerance 0.15] [--kernel artifacts/BENCH_kernel.json]

Every gate runs every time: a tripped throughput gate never hides the
latency or kernel-count verdicts — the FAIL summary lists all
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

    cur = cell_values(current, "throughput")
    base = cell_values(baseline, "throughput")
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


def kernel_drift(kernel: dict, baseline_kernel: dict) -> str | None:
    """``events_popped`` is part of the determinism contract: any
    difference is a hard failure (None: equal, or one side lacks it)."""
    b, c = baseline_kernel.get("events_popped"), kernel.get("events_popped")
    if None in (b, c) or b == c:
        return None
    return (
        f"kernel: events_popped {c} vs baseline {b} — the engine's work "
        "changed for an identical config (event-order drift)"
    )


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


def explain_trip(current: dict, baseline: dict, bundle: str, baseline_bundle: str) -> list[str]:
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
        lines.extend(explain_diff(diff_reports(baseline, current)))
    except Exception as exc:  # noqa: BLE001 — explainer must never flip the gate
        lines.append(f"(report attribution failed: {exc})")
    if Path(bundle).is_dir() and Path(baseline_bundle).is_dir():
        try:
            diff = diff_bundles(read_bundle(baseline_bundle), read_bundle(bundle))
            lines.append(f"bundle attribution ({baseline_bundle} -> {bundle}):")
            lines.extend("  " + line for line in explain_diff(diff))
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
                        help="BENCH_kernel.json whose events_popped must equal the "
                             "baseline's (default: sibling of current)")
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
    # kernel microbenchmark: events_popped, exact
    kernel_path = args.kernel or str(Path(args.current).parent / "BENCH_kernel.json")
    baseline_kernel = baseline.get("kernel")
    if baseline_kernel and Path(kernel_path).is_file():
        try:
            with open(kernel_path, encoding="utf-8") as fh:
                kernel = json.load(fh)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INVOCATION
        if kernel.get("mode") != baseline_kernel.get("mode"):
            notes.append(
                f"kernel: mode mismatch (current={kernel.get('mode')!r} "
                f"baseline={baseline_kernel.get('mode')!r}), comparison skipped"
            )
        elif drift := kernel_drift(kernel, baseline_kernel):
            regressions.append(drift)
    elif baseline_kernel:
        notes.append(f"kernel: no {kernel_path}, kernel gate skipped")

    print(f"regression check: {len(baseline['cells'])} baseline cells, "
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
