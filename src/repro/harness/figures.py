"""Per-figure/table drivers: each returns the data the paper plots.

Every function is pure orchestration over :mod:`repro.harness.experiment`
and returns plain data structures; the benchmarks print them via
:mod:`repro.harness.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.failures.model import ABE_CLUSTER, GOOGLE_DC, ClusterFailureModel
from repro.harness.experiment import (
    DEFAULT_WARMUP,
    DEFAULT_WINDOW,
    ExperimentConfig,
    run_experiment,
)
from repro.harness.sweep import CellSpec, SweepStats, cached_oracle_times, run_cells

MS_SCHEMES = ("baseline", "ms-src", "ms-src+ap", "ms-src+ap+aa")

# App parameter overrides used by all figure drivers.  In fast mode the
# measurement window shrinks; per-checkpoint state must shrink with it or
# the relative cost of a checkpoint is exaggerated (paper scale: 600 s).
# TMI's k-means window must also fit inside the measurement window.
def default_app_params(app: str, window: float) -> dict[str, Any]:
    scale = min(1.0, window / 600.0)
    if app == "tmi":
        return {"n_minutes": max(0.5, window / 4.0 / 60.0)}
    return {"state_scale": scale}


# --- Table I --------------------------------------------------------------------


def table1_failure_model(seed: int = 0, samples: int = 5) -> dict[str, Any]:
    """AFN100 per failure cause for the Google DC and the Abe cluster."""
    out: dict[str, Any] = {}
    for profile in (GOOGLE_DC, ABE_CLUSTER):
        model = ClusterFailureModel(profile, rng=np.random.default_rng(seed))
        expected = model.expected_afn100()
        ranges = model.table_rows(samples=samples)
        _rows, stats = model.sample_year()
        out[profile.name] = {
            "expected": expected,
            "ranges": ranges,
            "burst_event_share": stats["burst_event_share"],
        }
    return out


# --- Fig. 5 ----------------------------------------------------------------------


def fig5_state_traces(
    apps: list[str] | None = None,
    window: float = DEFAULT_WINDOW,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 1,
    tmi_windows: tuple[float, ...] = (1.0, 5.0, 10.0),
) -> dict[str, list[tuple[float, float]]]:
    """Aggregate dynamic-state-size series per application (MB).

    TMI is traced once per N (the paper plots N = 1, 5, 10 minutes); N is
    scaled to the measurement window in fast mode.
    """
    apps = apps or ["tmi", "bcp", "signalguru"]
    traces: dict[str, list[tuple[float, float]]] = {}
    for app in apps:
        if app == "tmi":
            for n in tmi_windows:
                scaled_n = n * (window / 600.0)
                cfg = ExperimentConfig(
                    app=app, scheme="none", window=window, warmup=warmup, seed=seed,
                    app_params={"n_minutes": max(scaled_n, 0.25)},
                )
                res = run_experiment(cfg, trace_state=True)
                series = res.state_trace.series("A")
                traces[f"tmi(N={n:g})"] = [(t, s / 1e6) for (t, s) in series]
        else:
            prefix = {"bcp": "H", "signalguru": "M"}[app]
            cfg = ExperimentConfig(
                app=app, scheme="none", window=window, warmup=warmup, seed=seed,
                app_params=default_app_params(app, window),
            )
            res = run_experiment(cfg, trace_state=True)
            traces[app] = [(t, s / 1e6) for (t, s) in res.state_trace.series(prefix)]
    return traces


# --- Figs. 12 & 13 ------------------------------------------------------------------


@dataclass
class SweepCell:
    """One (application, scheme, checkpoint-count) measurement."""

    app: str
    scheme: str
    n_checkpoints: int
    throughput: int
    latency: float
    rounds_completed: int
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    # Slowest per-round token-propagation critical path (seconds); 0.0
    # when no round completed (n=0 sweeps, scheme "none").
    critical_path_seconds: float = 0.0
    # Checkpoint phase-span totals (token-wait/safepoint-wait/snapshot/
    # disk-io seconds) — the diff engine's attribution input; empty when
    # no round completed.
    phase_totals: dict[str, float] = field(default_factory=dict)


@dataclass
class SweepResult:
    """All cells of the Fig. 12/13 sweep, with normalisation helpers."""

    cells: list[SweepCell] = field(default_factory=list)

    def cell(self, app: str, scheme: str, n: int) -> SweepCell | None:
        """The cell for (app, scheme, n), or None if it was not swept."""
        for c in self.cells:
            if (c.app, c.scheme, c.n_checkpoints) == (app, scheme, n):
                return c
        return None

    def normalized_throughput(self, app: str) -> dict[str, list[tuple[int, float]]]:
        """Normalised to the baseline at zero checkpoints (Fig. 12)."""
        base = self.cell(app, "baseline", 0)
        if base is None or base.throughput == 0:
            return {}
        out: dict[str, list[tuple[int, float]]] = {}
        for c in self.cells:
            if c.app == app:
                out.setdefault(c.scheme, []).append(
                    (c.n_checkpoints, c.throughput / base.throughput)
                )
        return {k: sorted(v) for k, v in out.items()}

    def normalized_latency(self, app: str) -> dict[str, list[tuple[int, float]]]:
        """Normalised to the baseline at zero checkpoints (Fig. 13)."""
        base = self.cell(app, "baseline", 0)
        if base is None or base.latency == 0:
            return {}
        out: dict[str, list[tuple[int, float]]] = {}
        for c in self.cells:
            if c.app == app:
                out.setdefault(c.scheme, []).append(
                    (c.n_checkpoints, c.latency / base.latency)
                )
        return {k: sorted(v) for k, v in out.items()}


def fig12_fig13_sweep(
    apps: list[str] | None = None,
    checkpoint_counts: list[int] | None = None,
    schemes: list[str] | None = None,
    window: float = DEFAULT_WINDOW,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 1,
    jobs: int | None = None,
    use_cache: bool = True,
    stats: SweepStats | None = None,
) -> SweepResult:
    """The common-case performance sweep behind Figs. 12 and 13.

    Cells fan out over :func:`repro.harness.sweep.run_cells` (parallel
    workers + content-addressed cache); the resulting cell list is in
    the same app × scheme × checkpoint-count order as the serial loop.
    """
    apps = apps or ["tmi", "bcp", "signalguru"]
    checkpoint_counts = checkpoint_counts if checkpoint_counts is not None else [0, 1, 3, 5, 8]
    schemes = schemes or list(MS_SCHEMES)
    # First pass: lay out every cell (None spec = the degenerate aa@0
    # case, filled from the ms-src+ap@0 cell after the sweep runs).
    entries: list[tuple[str, str, int, int | None]] = []
    specs: list[CellSpec] = []
    for app in apps:
        params = default_app_params(app, window)
        for scheme in schemes:
            for n in checkpoint_counts:
                if scheme == "ms-src+ap+aa" and n == 0:
                    # aa with no checkpoints degenerates to ap with none
                    entries.append((app, scheme, 0, None))
                    continue
                # aa needs its profiling pass to observe at least one full
                # checkpoint period of steady state before the measured
                # window opens.
                wu = warmup + (window / n if scheme == "ms-src+ap+aa" and n else 0.0)
                cfg = ExperimentConfig(
                    app=app, scheme=scheme, n_checkpoints=n,
                    window=window, warmup=wu, seed=seed, app_params=dict(params),
                )
                specs.append(CellSpec(config=cfg))
                entries.append((app, scheme, n, len(specs) - 1))
    payloads = run_cells(specs, jobs=jobs, use_cache=use_cache, stats=stats)
    result = SweepResult()
    for app, scheme, n, idx in entries:
        if idx is None:
            ref = result.cell(app, "ms-src+ap", 0)
            if ref is not None:
                result.cells.append(
                    SweepCell(
                        app, scheme, 0, ref.throughput, ref.latency, 0,
                        latency_p50=ref.latency_p50,
                        latency_p95=ref.latency_p95,
                        latency_p99=ref.latency_p99,
                        critical_path_seconds=ref.critical_path_seconds,
                        phase_totals=dict(ref.phase_totals),
                    )
                )
            continue
        p = payloads[idx]
        pct = p["latency_percentiles"]
        cp = p.get("critical_path") or {}
        phases = p.get("phase_spans") or {}
        result.cells.append(
            SweepCell(
                app, scheme, n, p["throughput"], p["latency"], p["rounds_completed"],
                latency_p50=pct.get("p50", 0.0),
                latency_p95=pct.get("p95", 0.0),
                latency_p99=pct.get("p99", 0.0),
                critical_path_seconds=cp.get("max_seconds", 0.0),
                phase_totals=dict(phases.get("totals") or {}),
            )
        )
    return result


def headline_numbers(sweep: SweepResult, apps: list[str] | None = None) -> dict[str, float]:
    """The paper's §I claims, derived from the sweep.

    * source preservation: MS-src vs baseline at 0 checkpoints
      (paper: +35% throughput, -9% latency);
    * +ap: MS-src+ap vs MS-src at 3 checkpoints (paper: +28% throughput);
    * +aa: MS-src+ap+aa vs MS-src+ap at 3 checkpoints (paper: +14%);
    * total: MS-src+ap+aa vs baseline at 3 checkpoints
      (paper: +226% throughput, -57% latency).
    """
    apps = apps or ["tmi", "bcp", "signalguru"]

    def ratio(metric: str, scheme_a: str, scheme_b: str, n: int) -> float:
        vals = []
        for app in apps:
            a = sweep.cell(app, scheme_a, n)
            b = sweep.cell(app, scheme_b, n)
            if a and b and getattr(b, metric):
                vals.append(getattr(a, metric) / getattr(b, metric))
        if not vals:
            raise ValueError(
                f"no app in {apps} has {metric} cells for both {scheme_a} and "
                f"{scheme_b} at {n} checkpoints"
            )
        return sum(vals) / len(vals)

    return {
        "src_thpt_gain_0ckpt": ratio("throughput", "ms-src", "baseline", 0) - 1.0,
        "src_lat_gain_0ckpt": 1.0 - ratio("latency", "ms-src", "baseline", 0),
        "ap_thpt_gain_3ckpt": ratio("throughput", "ms-src+ap", "ms-src", 3) - 1.0,
        "aa_thpt_gain_3ckpt": ratio("throughput", "ms-src+ap+aa", "ms-src+ap", 3) - 1.0,
        "total_thpt_gain_3ckpt": ratio("throughput", "ms-src+ap+aa", "baseline", 3) - 1.0,
        "total_lat_gain_3ckpt": 1.0 - ratio("latency", "ms-src+ap+aa", "baseline", 3),
    }


# --- Fig. 14 ------------------------------------------------------------------------


def fig14_checkpoint_time(
    apps: list[str] | None = None,
    window: float = DEFAULT_WINDOW,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 1,
    n_checkpoints: int = 2,
    jobs: int | None = None,
    use_cache: bool = True,
) -> dict[str, dict[str, dict[str, float | str]]]:
    """Checkpoint time breakdown per app per scheme.

    MS-src reports total wall clock (token propagation overlaps individual
    checkpoints); MS-src+ap(+aa) and Oracle report the slowest individual
    checkpoint broken into token collection / disk I/O / other (§IV-B).
    A cell whose run completed no round has no numbers: it carries
    ``{"reason": "no complete round (0 of N): round 1 <its status>"}``
    instead.
    """
    apps = apps or ["tmi", "bcp", "signalguru"]
    schemes = ("ms-src", "ms-src+ap", "ms-src+ap+aa", "oracle")
    specs: list[CellSpec] = []
    for app in apps:
        params = default_app_params(app, window)
        oracle_base = ExperimentConfig(
            app=app, scheme="oracle", n_checkpoints=n_checkpoints,
            window=window, warmup=warmup, seed=seed, app_params=dict(params),
        )
        oracle_times = cached_oracle_times(oracle_base, use_cache=use_cache)
        for scheme in schemes:
            wu = warmup + (window / n_checkpoints if scheme == "ms-src+ap+aa" else 0.0)
            cfg = ExperimentConfig(
                app=app, scheme=scheme, n_checkpoints=n_checkpoints,
                window=window, warmup=wu, seed=seed, app_params=dict(params),
                oracle_times=oracle_times,
            )
            specs.append(CellSpec(config=cfg))
    payloads = run_cells(specs, jobs=jobs, use_cache=use_cache)
    out: dict[str, dict[str, dict[str, float | str]]] = {}
    it = iter(payloads)
    for app in apps:
        out[app] = {}
        for scheme in schemes:
            payload = next(it)
            ckpt = payload["checkpoint"]
            if ckpt is None:
                done = payload["rounds_completed"]
                why = "".join(f": {line}" for line in payload["incomplete_rounds"])
                out[app][scheme] = {
                    "reason": f"no complete round ({done} of {n_checkpoints}){why}"
                }
            elif scheme == "ms-src":
                out[app][scheme] = {"total": ckpt["wall_clock"]}
            else:
                out[app][scheme] = {
                    "token_collection": ckpt["token_collection"],
                    "disk_io": ckpt["disk_io"],
                    "other": ckpt["other"],
                    "total": ckpt["total"],
                }
    return out


# --- Fig. 15 -----------------------------------------------------------------------


def fig15_instantaneous_latency(
    app: str = "tmi",
    window: float = DEFAULT_WINDOW,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 1,
    bin_width: float = 3.0,
    jobs: int | None = None,
    use_cache: bool = True,
) -> dict[str, list[tuple[float, float]]]:
    """Instantaneous (binned) latency around a single mid-window checkpoint."""
    params = default_app_params(app, window)
    schemes = ("ms-src", "ms-src+ap", "ms-src+ap+aa")
    specs: list[CellSpec] = []
    for scheme in schemes:
        wu = warmup + (window if scheme == "ms-src+ap+aa" else 0.0)
        cfg = ExperimentConfig(
            app=app, scheme=scheme, n_checkpoints=1,
            window=window, warmup=wu, seed=seed, app_params=dict(params),
        )
        specs.append(CellSpec(config=cfg, bins=(wu, wu + window, bin_width)))
    payloads = run_cells(specs, jobs=jobs, use_cache=use_cache)
    return {
        scheme: [(t, v) for (t, v) in payload["binned_latency"]]
        for scheme, payload in zip(schemes, payloads)
    }


# --- Fig. 16 ------------------------------------------------------------------------


def fig16_recovery_time(
    apps: list[str] | None = None,
    window: float = DEFAULT_WINDOW,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 1,
    jobs: int | None = None,
    use_cache: bool = True,
) -> dict[str, dict[str, dict[str, float | str]]]:
    """Worst-case recovery: all nodes hosting the application fail.

    MS-src and MS-src+ap share recovery (same checkpointed bytes), so one
    entry covers both, per the paper.  MS-src+ap+aa and Oracle recover
    from smaller checkpoints.  A cell whose run recorded no recovery
    carries ``{"reason": ...}`` instead of numbers.
    """
    apps = apps or ["tmi", "bcp", "signalguru"]
    fail_at_frac = 0.6
    schemes = ("ms-src+ap", "ms-src+ap+aa", "oracle")
    specs: list[CellSpec] = []
    for app in apps:
        params = default_app_params(app, window)
        base = ExperimentConfig(
            app=app, scheme="oracle", n_checkpoints=2,
            window=window, warmup=warmup, seed=seed, app_params=dict(params),
        )
        oracle_times = cached_oracle_times(base, use_cache=use_cache)
        for scheme in schemes:
            wu = warmup + (window / 2 if scheme == "ms-src+ap+aa" else 0.0)
            cfg = ExperimentConfig(
                app=app, scheme=scheme, n_checkpoints=2,
                window=window, warmup=wu, seed=seed, app_params=dict(params),
                oracle_times=oracle_times, enable_recovery=True,
            )
            specs.append(CellSpec(config=cfg, failure_at=wu + fail_at_frac * window))
    payloads = run_cells(specs, jobs=jobs, use_cache=use_cache)
    out: dict[str, dict[str, dict[str, float | str]]] = {}
    it = iter(payloads)
    for app in apps:
        out[app] = {}
        for scheme in schemes:
            rec = next(it)["recovery"]
            if rec is None:
                out[app][scheme] = {"reason": "no recovery recorded"}
                continue
            out[app][scheme] = {
                "reconnection": rec["reconnect_seconds"],
                "disk_io": rec["disk_io_seconds"],
                "other": rec["other"],
                "total": rec["total"],
                "bytes_read_mb": rec["bytes_read"] / 1e6,
            }
    return out
