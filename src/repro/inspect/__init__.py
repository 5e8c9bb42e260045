"""Run-bundle ledger + differential regression explainer.

``repro.inspect`` is the layer that makes two runs *comparable*.  The
recording stack (tracer, telemetry, profiler) answers "what happened in
this run"; this package answers "what changed between these runs, and
which phase/HAU is responsible":

* :mod:`repro.inspect.bundle` — the **RunBundle**: a content-addressed,
  byte-deterministic artifact directory per experiment / sweep cell
  (config fingerprint, determinism digest, metrics, phase-span totals,
  per-round critical-path hops, timeline summary).
* :mod:`repro.inspect.diff` — the **diff engine**: compares two bundles
  (or two ``BENCH_headline`` / campaign reports) and attributes
  checkpoint-time / latency / critical-path deltas to phase spans and
  individual HAUs, ranked as signed "top movers".
* :mod:`repro.inspect.explain` — renders a diff as the attributed
  explanation ``benchmarks/check_regression.py`` prints on a gate trip.
* ``python -m repro.inspect`` — ``diff`` / ``explain`` over bundle
  directories and report files, and ``show``, the one reader of a
  bundle, a trace JSONL or a telemetry snapshot (:mod:`repro.inspect.cli`).
"""

from repro.inspect.bundle import (
    BUNDLE_VERSION,
    PHASE_SPANS,
    build_bundle,
    bundle_id,
    read_bundle,
    write_bundle,
)
from repro.inspect.diff import diff_bundles, diff_reports, top_movers
from repro.inspect.explain import explain_diff, render_diff_table

__all__ = [
    "BUNDLE_VERSION",
    "PHASE_SPANS",
    "build_bundle",
    "bundle_id",
    "diff_bundles",
    "diff_reports",
    "explain_diff",
    "read_bundle",
    "render_diff_table",
    "top_movers",
    "write_bundle",
]
