"""One experiment = one app + one scheme + one schedule on one cluster.

Mirrors the paper's measurement protocol (§IV): a warm-up, then a
measured time window (10 minutes on EC2; 150 s by default here — pass
``window=600.0, warmup=60.0`` for paper scale), with 0-8 application
checkpoints arranged within the window.  Throughput and latency are
measured at the app's probe stage (see
:meth:`repro.metrics.collectors.MetricsHub.stage_summary`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.apps import APPS
from repro.cluster.topology import ClusterSpec
from repro.core import SCHEMES, CostModel
from repro.dsps.runtime import CheckpointScheme, DSPSRuntime, RuntimeConfig
from repro.failures.injector import FailureInjector, FailurePlan, PlannedFailure
from repro.observability import (
    Tracer,
    build_timeline,
    critical_paths,
    dumps_jsonl,
    render_summary,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from repro.simulation.core import Environment
from repro.telemetry import (
    MetricRegistry,
    Sampler,
    dumps_snapshot,
    snapshot,
    write_snapshot,
)
from repro.telemetry.fold import fold_run
from repro.vocabulary import SCHEME_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.plane import MonitorPlane


@dataclass
class ExperimentConfig:
    app: str = "tmi"
    scheme: str = "none"
    n_checkpoints: int = 0
    window: float = 150.0
    warmup: float = 30.0
    seed: int = 1
    workers: int = 55
    spares: int = 60  # enough for the worst-case (whole-app) restart
    racks: int = 4
    app_params: dict[str, Any] = field(default_factory=dict)
    oracle_times: list[float] | None = None
    enable_recovery: bool = False
    costs: CostModel | None = None
    # Monitoring plane (repro.monitor): 0 = off, the digest-pinned
    # default.  ``monitor_slos`` maps SLO kind -> bound override.
    monitor_period: float = 0.0
    monitor_slos: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}; choose from {sorted(APPS)}")
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (self.window > 0 and math.isfinite(self.window)):
            raise ValueError(f"window must be finite, > 0: {self.window!r}")
        if not (self.warmup >= 0 and math.isfinite(self.warmup)):
            raise ValueError(f"warmup must be finite, >= 0: {self.warmup!r}")
        if not (self.monitor_period >= 0 and math.isfinite(self.monitor_period)):
            raise ValueError(f"monitor_period must be finite, >= 0: {self.monitor_period!r}")
        if self.monitor_slos:
            from repro.monitor.slo import SLO_KINDS

            unknown = sorted(set(self.monitor_slos) - set(SLO_KINDS))
            if unknown:
                raise ValueError(
                    f"unknown SLO kind(s) in monitor_slos: {', '.join(unknown)}"
                )

    @property
    def end(self) -> float:
        return self.warmup + self.window

    def checkpoint_times(self) -> list[float]:
        """Evenly spaced instants inside the measured window."""
        n = self.n_checkpoints
        if n <= 0:
            return []
        return [self.warmup + (k + 0.5) * self.window / n for k in range(n)]


@dataclass
class ExperimentResult:
    """Outcome of one run: probe-stage metrics plus live handles for
    deeper inspection (scheme logs, runtime, optional per-HAU samples).

    Building one finishes the run's observation: the monitor ticks over
    what the run recorded, then ``telemetry``, when given, is filled from
    the run's records (:func:`~repro.telemetry.fold.fold_run`)."""

    config: ExperimentConfig
    throughput: int
    latency: float
    scheme: CheckpointScheme
    runtime: DSPSRuntime
    tracer: Tracer | None = None
    telemetry: MetricRegistry | None = None
    telemetry_sampler: Sampler | None = None
    latency_percentiles: dict[str, float] = field(default_factory=dict)
    monitor: "MonitorPlane | None" = None
    _timeline: Any = field(default=None, init=False, repr=False, compare=False)
    _snapshot: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the monitoring plane ticks over what a finished run recorded,
        # then the registry folds the run's records and the monitor's
        if self.monitor is not None:
            self.monitor.finish(self.runtime.metrics.stage_samples, self.config.end)
        if self.telemetry is not None:
            fold_run(self.telemetry, self.runtime, self.telemetry_sampler, self.monitor)

    # -- monitoring plane access (cfg.monitor_period > 0) ------------------
    @property
    def alerts(self) -> dict:
        """The run's alert block (period, ticks, summary, log) — ``{}``
        when the run was unmonitored."""
        return self.monitor.as_dict() if self.monitor is not None else {}

    @property
    def health_timeline(self) -> list[dict]:
        """Per-HAU/per-rack health transitions — ``[]`` when unmonitored."""
        return list(self.monitor.health.timeline) if self.monitor is not None else []

    @property
    def checkpoint_logs(self):
        getter = getattr(self.scheme, "checkpoint_logs", None)
        return getter() if getter else []

    # -- structured trace access (run_experiment(..., trace=True)) ---------
    def trace_jsonl(self) -> str:
        """The run's trace as deterministic JSONL text."""
        if self.tracer is None:
            raise RuntimeError("run_experiment(..., trace=True) to record a trace")
        return dumps_jsonl(self.tracer)

    def write_trace(self, path: str) -> int:
        if self.tracer is None:
            raise RuntimeError("run_experiment(..., trace=True) to record a trace")
        return write_jsonl(self.tracer, path)

    def trace_summary(self) -> dict:
        """Checkpoint timelines, recovery breakdowns, critical paths and
        stragglers rendered from the run's timeline."""
        return summarize(self.timeline())

    def trace_report(self) -> str:
        """The summary as text — what ``python -m repro.inspect show``
        prints for the trace ``write_trace`` wrote."""
        return render_summary(self.trace_summary())

    # -- causal timelines (repro.observability) -----------------------------
    def timeline(self):
        """The run's trace folded into rounds and recoveries — once: the
        summary, critical paths, Chrome trace and sweep payload all read
        this one fold."""
        if self.tracer is None:
            raise RuntimeError("run_experiment(..., trace=True) to record a trace")
        if self._timeline is None:
            self._timeline = build_timeline(self.tracer)
        return self._timeline

    def critical_paths(self):
        """Per-round token-propagation critical paths (complete rounds)."""
        return critical_paths(self.timeline())

    def write_chrome_trace(self, path: str) -> int:
        """Export the run as Perfetto-loadable trace-event JSON."""
        return write_chrome_trace(self.timeline(), path)

    def state_series(self, hau_prefix: str = "") -> list[tuple[float, float]]:
        """Summed ``state_size()`` of the HAUs whose id starts with
        ``hau_prefix``, one point per sampling instant (Fig. 5's series,
        the Oracle's minima search)."""
        if self.telemetry_sampler is None:
            raise RuntimeError("run_experiment(..., trace_state=True) to sample state")
        by_time: dict[float, float] = {}
        for hau_id, points in self.telemetry_sampler.series["ms_hau_state_bytes"].items():
            if hau_id.startswith(hau_prefix):
                for t, s in points:
                    by_time[t] = by_time.get(t, 0.0) + s
        return sorted(by_time.items())

    def binned_latency(self, start: float, end: float, bin_width: float = 2.0):
        probe = self.runtime.app.params.get("probe_prefix", "")
        return self.runtime.metrics.stage_binned_latency(probe, start, end, bin_width)

    # -- telemetry access (run_experiment(..., telemetry=True)) ------------
    def telemetry_snapshot(self) -> dict:
        """Registry + sampler series as a JSON-ready (deterministic) dict —
        built once: the file, the JSON text and the bundle all read this
        one object, so callers must not mutate it."""
        if self.telemetry is None:
            raise RuntimeError(
                "run_experiment(..., telemetry=True) to record telemetry"
            )
        if self._snapshot is None:
            meta = {
                "app": self.config.app,
                "scheme": self.config.scheme,
                "seed": self.config.seed,
            }
            self._snapshot = snapshot(
                self.telemetry, sampler=self.telemetry_sampler, meta=meta
            )
        return self._snapshot

    def telemetry_json(self) -> str:
        return dumps_snapshot(self.telemetry_snapshot())

    def write_telemetry(self, path: str) -> None:
        write_snapshot(self.telemetry_snapshot(), path)

    # -- run bundles (repro.inspect) ---------------------------------------
    def run_bundle(self) -> dict:
        """The run distilled into an in-memory RunBundle — the comparable,
        content-addressed artifact ``python -m repro.inspect diff``
        consumes.  Richer with ``trace=True`` (phase spans, critical
        paths) and ``telemetry=True`` (metric snapshot), but works with
        neither (metrics + config only)."""
        from repro.harness.sweep import reduce_result
        from repro.inspect.bundle import build_bundle

        telemetry = self.telemetry_snapshot() if self.telemetry is not None else None
        return build_bundle(reduce_result(self), telemetry=telemetry)

    def write_run_bundle(self, root: str, name: str | None = None):
        """Write the RunBundle directory under ``root``; returns its path.

        Content-addressed by default; pass ``name`` to pin a stable
        directory (committed baselines, CI artifacts)."""
        from repro.inspect.bundle import write_bundle

        return write_bundle(self.run_bundle(), root, name=name)


def make_scheme(cfg: ExperimentConfig) -> CheckpointScheme:
    """Instantiate the configured fault-tolerance scheme for one run."""
    return SCHEMES[cfg.scheme].from_config(cfg)


def run_experiment(
    cfg: ExperimentConfig,
    trace_state: bool = False,
    failure_at: float | None = None,
    failure_targets: list[str] | None = None,
    failure_plan: "FailurePlan | None" = None,
    trace: bool = False,
    telemetry: bool = False,
) -> ExperimentResult:
    """Build, run and measure one experiment.

    ``failure_plan`` drives a whole trace of scheduled failures
    (single-node, rack bursts, partitions, stragglers — see
    :class:`~repro.failures.injector.FailurePlan`) through a
    :class:`~repro.failures.injector.FailureInjector`.  ``failure_at`` is
    the paper's worst case (§IV-C) in one argument: at that instant the
    nodes in ``failure_targets`` — by default every node hosting an HAU
    once the runtime has started — fail, in id order, as ``node`` rows
    with cause ``"experiment"`` run by an injector of their own.  An id
    the cluster does not have raises :class:`KeyError` before the run.

    ``trace=True`` attaches a structured :class:`Tracer` to the
    environment before the runtime is built (so every layer emits through
    it); the result's ``tracer`` / ``trace_jsonl()`` / ``trace_summary()``
    expose the recorded timeline.

    ``telemetry=True`` gives the result a
    :class:`~repro.telemetry.registry.MetricRegistry`, folded after the
    run from its trace and records (nothing in the run counts); it turns
    tracing on, and the result's ``telemetry_snapshot()`` /
    ``write_telemetry()`` expose the metrics.  It, or ``trace_state=True``
    alone (which builds no registry), starts the per-HAU
    :class:`~repro.telemetry.sampler.Sampler` (one sample per simulated
    second): ``result.telemetry_sampler`` holds its series and
    ``result.state_series()`` sums their state sizes.
    """
    monitor_on = cfg.monitor_period > 0.0
    env = Environment()
    # The monitoring plane and the telemetry fold read the trace; a
    # monitored run exposes both it and a registry on the result.
    if trace or monitor_on or telemetry:
        env.enable_tracing()
    tracer = env.trace if (trace or monitor_on) else None
    registry = MetricRegistry() if (telemetry or monitor_on) else None
    builder = APPS[cfg.app]
    app = builder.build(seed=cfg.seed, **cfg.app_params)
    runtime = DSPSRuntime(
        env,
        app,
        make_scheme(cfg),
        RuntimeConfig(
            seed=cfg.seed,
            cluster=ClusterSpec(workers=cfg.workers, spares=cfg.spares, racks=cfg.racks),
        ),
    )
    runtime.start()
    monitor = None
    if monitor_on:
        from repro.monitor.plane import MonitorPlane
        from repro.monitor.slo import default_slos

        monitor = MonitorPlane(
            cfg.monitor_period,
            slos=default_slos(cfg.monitor_slos or None),
            racks={hid: h.node.rack for hid, h in runtime.haus.items()},
            nodes={hid: h.node.node_id for hid, h in runtime.haus.items()},
        ).attach(env)
    if failure_plan is not None and failure_plan.events:
        FailureInjector(env, runtime.dc, failure_plan).start()
    sampler = Sampler(runtime) if (trace_state or telemetry) else None
    if failure_at is not None:
        if failure_targets is None:
            failure_targets = sorted({h.node.node_id for h in runtime.haus.values()})
        for node_id in failure_targets:
            runtime.dc.node(node_id)  # an unknown id raises here, not mid-run
        kills = [PlannedFailure(failure_at, "node", n, cause="experiment") for n in failure_targets]
        FailureInjector(env, runtime.dc, FailurePlan(kills)).start()

    env.run(until=cfg.end)

    probe = app.params.get("probe_prefix", "")
    throughput, latency, percentiles = runtime.metrics.stage_summary(probe, cfg.warmup, cfg.end)
    return ExperimentResult(
        config=cfg,
        throughput=throughput,
        latency=latency,
        scheme=runtime.scheme,
        runtime=runtime,
        tracer=tracer,
        telemetry=registry,
        telemetry_sampler=sampler,
        latency_percentiles=percentiles,
        monitor=monitor,
    )


def find_oracle_times(cfg: ExperimentConfig) -> list[float]:
    """Measure a prior run and return the true per-period state minima.

    "This checkpoint time is obtained from observing prior runs, when a
    complete picture of the runtime state is available" (§IV-B).
    """
    observe = ExperimentConfig(
        app=cfg.app,
        scheme="none",
        n_checkpoints=0,
        window=cfg.window,
        warmup=cfg.warmup,
        seed=cfg.seed,
        workers=cfg.workers,
        spares=cfg.spares,
        racks=cfg.racks,
        app_params=dict(cfg.app_params),
    )
    series = [
        (t, s)
        for (t, s) in run_experiment(observe, trace_state=True).state_series()
        if cfg.warmup <= t < cfg.end
    ]
    period = cfg.window / max(1, cfg.n_checkpoints)
    times = []
    start = cfg.warmup
    while start < cfg.end:
        window = [(t, s) for (t, s) in series if start <= t < start + period]
        if window:
            times.append(min(window, key=lambda ts: ts[1])[0])
        start += period
    return times
