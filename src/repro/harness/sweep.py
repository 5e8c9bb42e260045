"""Parallel sweep runner with a content-addressed result cache.

Every paper figure is a sweep of independent, deterministic experiments,
so two properties fall out for free and this module exploits both:

* **Parallelism** — cells share no state, so they fan out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``REPRO_JOBS`` or
  all cores) and merge back in input order.  Each worker runs its cell
  in a fresh interpreter with its own seeded
  :class:`~repro.simulation.core.Environment`, so parallel results are
  bit-identical to serial ones (asserted in
  ``tests/test_determinism_digest.py``).
* **Memoisation** — a cell's outcome is a pure function of its config
  and the code that ran it, so payloads are cached on disk keyed by
  ``sha256(config ‖ run-kwargs ‖ payload-version ‖ code fingerprint)``.
  The code fingerprint hashes every ``src/repro/**/*.py`` byte: touch
  any source file and the whole cache invalidates, so a hit can never
  serve stale physics.

Workers return *payloads* — reduced, JSON-ready dicts — rather than
:class:`~repro.harness.experiment.ExperimentResult` objects, which hold
live generators and cannot cross a process boundary.  A payload carries
everything the figure drivers consume plus the cell's determinism digest
(see :mod:`repro.harness.digest`) and the kernel counters.  Payloads are
round-tripped through canonical JSON even when computed in-process, so
fresh, parallel and cached results are byte-indistinguishable.

Cache location: ``$REPRO_CACHE_DIR`` or ``.repro-cache/`` at the repo
root; ``python -m repro.harness.sweep --clear`` (or deleting the
directory) empties it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.failures.injector import FailurePlan, PlannedFailure
from repro.harness.digest import canonical_json, config_fingerprint, result_digest
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    find_oracle_times,
    run_experiment,
)
from repro.observability import straggler_report

# Bump to invalidate every cached payload when the payload *shape*
# changes (the code fingerprint already covers behaviour changes).
# v2: cells run traced and carry per-round critical-path seconds.
# v3: cells carry declarative failure traces (scenario DSL) in their key.
# v4: cells carry phase-span totals, per-round critical-path hops and
#     stragglers (the RunBundle content — see repro.inspect.bundle).
# v5: cells carry the monitoring plane's alert block and health timeline
#     (empty when cfg.monitor_period == 0 — see repro.monitor).
# v6: cells say why each round that did not complete did not.
PAYLOAD_VERSION = 6


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else all cores."""
    configured = os.environ.get("REPRO_JOBS", "")
    if configured:
        return max(1, int(configured))
    return os.cpu_count() or 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``.repro-cache/`` at the repo root."""
    configured = os.environ.get("REPRO_CACHE_DIR", "")
    if configured:
        return Path(configured)
    return Path(__file__).resolve().parents[3] / ".repro-cache"


def clear_cache(cache_dir: Path | None = None) -> int:
    """Delete every cached payload; returns how many were removed."""
    cdir = cache_dir if cache_dir is not None else default_cache_dir()
    removed = 0
    if cdir.is_dir():
        for entry in sorted(cdir.glob("*.json")):
            entry.unlink()
            removed += 1
    return removed


_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over every ``src/repro/**/*.py`` (path + bytes).

    This is the cache's code-version salt: any source edit — even a
    comment — invalidates all cached payloads.  Cheap (one read of the
    tree) and safe; a finer-grained dependency analysis is not worth a
    stale-physics bug.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
        _CODE_FINGERPRINT = _tree_digest(package_root)
    return _CODE_FINGERPRINT


def _tree_digest(root: str) -> str:
    """SHA-256 over every ``*.py`` under ``root``: per file, in
    ``sorted(Path(root).rglob("*.py"))`` order (component by component),
    its root-relative posix name, ``b"\\0"`` and its bytes.  Walked with
    plain strings: pathlib objects cost more than the reads."""
    cut = len(root) + 1
    rel_names = sorted(
        (os.path.join(dirpath, name)[cut:].replace(os.sep, "/")
         for dirpath, _dirs, names in os.walk(root)
         for name in names if name.endswith(".py")),
        key=lambda rel: rel.split("/"))
    h = hashlib.sha256()
    for rel in rel_names:
        h.update(rel.encode("utf-8"))
        h.update(b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell: a config plus the ``run_experiment`` kwargs.

    ``bins = (start, end, bin_width)`` additionally asks the worker for
    the binned instantaneous-latency series (Fig. 15), which must be
    computed in-process because raw per-tuple latencies never leave the
    worker.

    ``failure_trace`` is a declarative failure schedule (the scenario
    DSL's lowering target): a tuple of
    :class:`~repro.failures.injector.PlannedFailure` events executed by
    a :class:`~repro.failures.injector.FailureInjector`, covering
    single-node kills, rack bursts, partitions and stragglers.
    """

    config: ExperimentConfig
    failure_at: float | None = None
    failure_targets: tuple[str, ...] | None = None
    failure_trace: tuple[PlannedFailure, ...] | None = None
    bins: tuple[float, float, float] | None = None

    def key_material(self) -> dict[str, Any]:
        return {
            "version": PAYLOAD_VERSION,
            "config": config_fingerprint(self.config),
            "failure_at": self.failure_at,
            "failure_targets": (
                list(self.failure_targets) if self.failure_targets is not None else None
            ),
            "failure_trace": (
                [dataclasses.asdict(e) for e in self.failure_trace]
                if self.failure_trace is not None
                else None
            ),
            "bins": list(self.bins) if self.bins is not None else None,
        }


def cell_key(spec: CellSpec) -> str:
    """Content address of a cell: config ‖ kwargs ‖ version ‖ code salt."""
    material = spec.key_material()
    material["code"] = code_fingerprint()
    return hashlib.sha256(canonical_json(material).encode("utf-8")).hexdigest()


def reduce_result(result: ExperimentResult, spec: CellSpec | None = None) -> dict[str, Any]:
    """Everything the figure drivers consume, as a JSON-ready dict."""
    logs = result.checkpoint_logs
    complete = [log for log in logs if getattr(log, "complete", False)]
    checkpoint = None
    if complete:
        last = complete[-1]
        slowest = last.slowest()
        checkpoint = {
            "wall_clock": last.wall_clock(),
            "token_collection": slowest.token_collection,
            "disk_io": slowest.disk_io,
            "other": slowest.other,
            "total": slowest.total,
        }
    recovery = None
    recoveries = result.scheme.recoveries
    if recoveries:
        rec = recoveries[0]
        recovery = {
            "reconnect_seconds": rec.reconnect_seconds,
            "disk_io_seconds": rec.disk_io_seconds,
            "other": rec.other,
            "total": rec.total,
            "bytes_read": rec.bytes_read,
        }
    binned = None
    if spec is not None and spec.bins is not None:
        start, end, width = spec.bins
        binned = [[t, v] for (t, v) in result.binned_latency(start, end, width)]
    critical_path = None
    phase_spans = None
    stragglers = None
    if result.tracer is not None:
        paths = result.critical_paths()
        if paths:
            seconds = [p.seconds for p in paths]
            critical_path = {
                "rounds": {str(p.round_id): p.seconds for p in paths},
                "max_seconds": max(seconds),
                "mean_seconds": sum(seconds) / len(seconds),
                "gating": {str(p.round_id): p.gating_hau for p in paths},
                "hops": {
                    str(p.round_id): [
                        {
                            "kind": h.kind,
                            "subject": h.subject,
                            "seconds": h.duration,
                        }
                        for h in p.hops
                    ]
                    for p in paths
                },
            }
        # Per-phase span totals (token-wait/safepoint-wait/snapshot/
        # disk-io) summed over every HAU checkpoint of every round, plus
        # the per-HAU breakdown — the diff engine's attribution input.
        timeline = result.timeline()
        totals: dict[str, float] = {}
        per_hau: dict[str, dict[str, float]] = {}
        for wave in timeline.rounds:
            for hau_id in sorted(wave.haus):
                for span in wave.haus[hau_id].phase_spans():
                    totals[span.name] = totals.get(span.name, 0.0) + span.duration
                    bucket = per_hau.setdefault(hau_id, {})
                    bucket[span.name] = bucket.get(span.name, 0.0) + span.duration
        if totals:
            phase_spans = {
                "totals": dict(sorted(totals.items())),
                "per_hau": {
                    h: dict(sorted(phases.items()))
                    for h, phases in sorted(per_hau.items())
                },
            }
        flagged = straggler_report(timeline)
        if flagged:
            stragglers = [s.as_dict() for s in flagged]
    return {
        "config": config_fingerprint(result.config),
        "throughput": result.throughput,
        "latency": result.latency,
        "latency_percentiles": dict(sorted(result.latency_percentiles.items())),
        "rounds_completed": len(complete),
        "incomplete_rounds": [
            f"round {log.round_id} {log.status()}" for log in logs if not log.complete
        ],
        "checkpoint": checkpoint,
        "recovery": recovery,
        "critical_path": critical_path,
        "phase_spans": phase_spans,
        "stragglers": stragglers,
        "binned_latency": binned,
        "alerts": result.alerts,
        "health_timeline": result.health_timeline,
        "digest": result_digest(result),
        "kernel": result.runtime.env.kernel_stats(),
    }


def run_spec(spec: CellSpec) -> ExperimentResult:
    """Execute one cell, traced."""
    return run_experiment(
        spec.config,
        failure_at=spec.failure_at,
        failure_targets=(
            list(spec.failure_targets) if spec.failure_targets is not None else None
        ),
        failure_plan=(
            FailurePlan(events=list(spec.failure_trace))
            if spec.failure_trace is not None
            else None
        ),
        # Tracing only appends to an event list — it never schedules
        # simulation events — so digests and physics are unchanged while
        # every cell gains its causal timeline (critical-path seconds).
        trace=True,
    )


def run_cell(spec: CellSpec) -> dict[str, Any]:
    """Execute one cell and reduce it (module-level: pickled to workers).

    The canonical-JSON round trip normalises tuples/floats so an
    in-process payload is byte-identical to one that crossed a process
    boundary or the disk cache.
    """
    return json.loads(canonical_json(reduce_result(run_spec(spec), spec)))


def run_cell_or_error(spec: CellSpec) -> dict[str, Any]:
    """:func:`run_cell`, with a cell that raises reduced to ``{"error":
    "<ExceptionType>: <message>"}`` — deterministic text (the kernel's
    message carries the process label and ``t=``)."""
    try:
        return run_cell(spec)
    except Exception as exc:  # noqa: BLE001 — whatever the cell raised is its result
        return {"error": f"{type(exc).__name__}: {exc}"}


@dataclass
class SweepStats:
    """What the runner did: worker fan-out and cache traffic."""

    jobs: int = 1
    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    keys: list[str] = field(default_factory=list)


def _write_cached(path: Path, value: Any) -> None:
    """Write ``value``'s canonical JSON to ``path`` atomically: concurrent
    sweeps never see a partial write, and two writing the same key each
    write their own temporary file, so neither can lose it to the other."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(value))
    os.replace(tmp, path)


def default_bundle_dir() -> Path | None:
    """``$REPRO_BUNDLE_DIR`` if set, else no bundles are written."""
    configured = os.environ.get("REPRO_BUNDLE_DIR", "")
    return Path(configured) if configured else None


def run_cells(
    specs: list[CellSpec],
    jobs: int | None = None,
    cache_dir: Path | None = None,
    use_cache: bool = True,
    stats: SweepStats | None = None,
    bundle_dir: Path | None = None,
    keep_going: bool = False,
) -> list[dict[str, Any]]:
    """Run every cell — cached, then parallel — and merge in input order.

    The returned list lines up index-for-index with ``specs`` regardless
    of which cells were cache hits and in which order workers finished,
    so callers observe a deterministic, serial-equivalent sweep.

    ``bundle_dir`` (or ``$REPRO_BUNDLE_DIR``) additionally writes one
    :mod:`repro.inspect.bundle` RunBundle per cell — the comparable,
    content-addressed artifact ``python -m repro.inspect diff`` consumes
    — next to (but independent of) the payload cache.

    A cell that raises ends the sweep (a figure with a hole in it is
    wrong) unless ``keep_going``: then its payload is ``{"error": ...}``
    (see :func:`run_cell_or_error`), never cached and never bundled, and
    every other cell still runs — the campaign's mode.
    """
    jobs = jobs if jobs is not None else default_jobs()
    if stats is None:
        stats = SweepStats()
    stats.jobs = jobs
    stats.cells += len(specs)
    cdir = (cache_dir if cache_dir is not None else default_cache_dir()) if use_cache else None

    payloads: list[dict[str, Any] | None] = [None] * len(specs)
    pending: list[tuple[int, CellSpec, Path | None]] = []
    for i, spec in enumerate(specs):
        if cdir is None:
            pending.append((i, spec, None))
            continue
        key = cell_key(spec)
        stats.keys.append(key)
        path = cdir / f"{key}.json"
        if path.is_file():
            with open(path, encoding="utf-8") as fh:
                payloads[i] = json.load(fh)
            stats.cache_hits += 1
        else:
            stats.cache_misses += 1
            pending.append((i, spec, path))

    if pending:
        stats.executed += len(pending)
        cell_fn = run_cell_or_error if keep_going else run_cell
        if jobs > 1 and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
                fresh = list(pool.map(cell_fn, [spec for (_i, spec, _p) in pending]))
        else:
            fresh = [cell_fn(spec) for (_i, spec, _p) in pending]
        for (i, _spec, path), payload in zip(pending, fresh):
            payloads[i] = payload
            if path is not None and "error" not in payload:
                _write_cached(path, payload)

    bdir = bundle_dir if bundle_dir is not None else default_bundle_dir()
    if bdir is not None:
        # deferred: keep the sweep importable without repro.inspect
        from repro.inspect.bundle import build_bundle, write_bundle

        for payload in payloads:
            if "error" not in payload:
                write_bundle(build_bundle(payload), bdir)
    return payloads  # type: ignore[return-value]


def cached_oracle_times(
    cfg: ExperimentConfig,
    cache_dir: Path | None = None,
    use_cache: bool = True,
) -> list[float]:
    """:func:`find_oracle_times` behind the same content-addressed cache.

    The observation run is the most expensive part of Figs. 14/16; its
    minima depend only on the config and the code, so they memoise under
    the same invalidation rule as cell payloads.
    """
    if not use_cache:
        return find_oracle_times(cfg)
    material = {
        "kind": "oracle-times",
        "version": PAYLOAD_VERSION,
        "config": config_fingerprint(cfg),
        "code": code_fingerprint(),
    }
    key = hashlib.sha256(canonical_json(material).encode("utf-8")).hexdigest()
    cdir = cache_dir if cache_dir is not None else default_cache_dir()
    path = cdir / f"{key}.json"
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    times = find_oracle_times(cfg)
    _write_cached(path, times)
    return times


def main(argv: list[str] | None = None) -> int:
    """CLI for cache management: ``--clear`` empties the cache dir."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clear", action="store_true", help="delete every cached payload")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache/)")
    args = parser.parse_args(argv)
    cdir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    if args.clear:
        print(f"removed {clear_cache(cdir)} cached payload(s) from {cdir}")
        return 0
    entries = sorted(cdir.glob("*.json")) if cdir.is_dir() else []
    total = sum(e.stat().st_size for e in entries)
    print(f"{cdir}: {len(entries)} cached payload(s), {total} bytes")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
