"""One experiment = one app + one scheme + one schedule on one cluster.

Mirrors the paper's measurement protocol (§IV): a warm-up, then a
measured time window (10 minutes on EC2; scaled down by default here —
set ``REPRO_FULL=1`` for paper-scale windows), with 0-8 application
checkpoints arranged within the window.  Throughput and latency are
measured at the app's probe stage (see
:meth:`repro.metrics.collectors.MetricsHub.stage_throughput`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.apps import APPS
from repro.cluster.topology import ClusterSpec
from repro.core import SCHEMES, CostModel
from repro.dsps.runtime import CheckpointScheme, DSPSRuntime, RuntimeConfig
from repro.failures.injector import FailureInjector, FailurePlan
from repro.observability import Tracer, dumps_jsonl, render_summary, summarize, write_jsonl
from repro.simulation.core import Environment, Interrupt
from repro.telemetry import (
    MetricRegistry,
    Sampler,
    dumps_snapshot,
    snapshot,
    write_snapshot,
)
from repro.vocabulary import SCHEME_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.plane import MonitorPlane

FULL_SCALE = bool(int(os.environ.get("REPRO_FULL", "0")))
DEFAULT_WINDOW = 600.0 if FULL_SCALE else 150.0
DEFAULT_WARMUP = 60.0 if FULL_SCALE else 30.0


@dataclass
class ExperimentConfig:
    app: str = "tmi"
    scheme: str = "none"
    n_checkpoints: int = 0
    window: float = DEFAULT_WINDOW
    warmup: float = DEFAULT_WARMUP
    seed: int = 1
    workers: int = 55
    spares: int = 60  # enough for the worst-case (whole-app) restart
    racks: int = 4
    app_params: dict[str, Any] = field(default_factory=dict)
    oracle_times: list[float] | None = None
    enable_recovery: bool = False
    costs: CostModel | None = None
    # Live monitoring plane (repro.monitor): 0 = off, the digest-pinned
    # default.  ``monitor_slos`` maps SLO kind -> bound override.
    monitor_period: float = 0.0
    monitor_slos: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}; choose from {sorted(APPS)}")
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.monitor_period < 0:
            raise ValueError(f"monitor_period must be >= 0, got {self.monitor_period!r}")
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
    deeper inspection (scheme logs, runtime, optional state trace)."""

    config: ExperimentConfig
    throughput: int
    latency: float
    scheme: CheckpointScheme
    runtime: DSPSRuntime
    state_trace: "StateTraceRecorder" | None = None
    tracer: Tracer | None = None
    telemetry: MetricRegistry | None = None
    telemetry_sampler: Sampler | None = None
    latency_percentiles: dict[str, float] = field(default_factory=dict)
    monitor: "MonitorPlane | None" = None
    _timeline: Any = field(default=None, init=False, repr=False, compare=False)
    _snapshot: dict | None = field(default=None, init=False, repr=False, compare=False)

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

    # -- causal timelines (repro.profiling) --------------------------------
    def timeline(self):
        """The run's trace folded into rounds and recoveries — once: the
        summary, critical paths, Chrome trace and sweep payload all read
        this one fold."""
        if self.tracer is None:
            raise RuntimeError("run_experiment(..., trace=True) to record a trace")
        if self._timeline is None:
            from repro.profiling import build_timeline

            self._timeline = build_timeline(self.tracer)
        return self._timeline

    def critical_paths(self):
        """Per-round token-propagation critical paths (complete rounds)."""
        from repro.profiling import critical_paths

        return critical_paths(self.timeline())

    def write_chrome_trace(self, path: str) -> int:
        """Export the run as Perfetto-loadable trace-event JSON."""
        from repro.profiling import write_chrome_trace

        return write_chrome_trace(self.timeline(), path)

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


class StateTraceRecorder:
    """Samples every HAU's state size over time (costless observation).

    Feeds Fig. 5 (state-size fluctuation), Fig. 10/11 (profiling and
    alert-mode demonstrations) and the Oracle's minima search.
    """

    def __init__(self, runtime: DSPSRuntime, interval: float = 1.0):
        self.runtime = runtime
        self.interval = interval
        self.samples: dict[str, list[tuple[float, int]]] = {}
        runtime.env.process(self._run(), label="state-trace")

    def _run(self):
        env = self.runtime.env
        try:
            while True:
                yield env.timeout(self.interval)
                for hau_id, hau in self.runtime.haus.items():
                    if hau.node.alive:
                        self.samples.setdefault(hau_id, []).append(
                            (env.now, hau.state_size())
                        )
        except Interrupt:
            return

    def series(self, hau_prefix: str = "") -> list[tuple[float, int]]:
        """Aggregate (summed) state-size series for HAUs matching prefix."""
        by_time: dict[float, int] = {}
        for hau_id, samples in self.samples.items():
            if hau_id.startswith(hau_prefix):
                for t, s in samples:
                    by_time[t] = by_time.get(t, 0) + s
        return sorted(by_time.items())

    def total_series(self) -> list[tuple[float, int]]:
        return self.series("")

    def minima_per_period(
        self, start: float, period: float, end: float, hau_prefix: str = ""
    ) -> list[tuple[float, int]]:
        series = [(t, s) for (t, s) in self.series(hau_prefix) if start <= t < end]
        out = []
        p = start
        while p < end:
            window = [(t, s) for (t, s) in series if p <= t < p + period]
            if window:
                out.append(min(window, key=lambda ts: ts[1]))
            p += period
        return out


def run_experiment(
    cfg: ExperimentConfig,
    trace_state: bool = False,
    failure_at: float | None = None,
    failure_targets: list[str] | None = None,
    failure_plan: "FailurePlan | None" = None,
    trace: bool = False,
    telemetry: bool = False,
    telemetry_interval: float = 1.0,
) -> ExperimentResult:
    """Build, run and measure one experiment.

    ``failure_plan`` drives a whole trace of scheduled failures
    (single-node, rack bursts, partitions, stragglers — see
    :class:`~repro.failures.injector.FailurePlan`) through a
    :class:`~repro.failures.injector.FailureInjector`; ``failure_at`` /
    ``failure_targets`` remain the simple one-shot kill used by the
    paper's worst-case experiments.

    ``trace=True`` attaches a structured :class:`Tracer` to the
    environment before the runtime is built (so every layer emits through
    it); the result's ``tracer`` / ``trace_jsonl()`` / ``trace_summary()``
    expose the recorded timeline.

    ``telemetry=True`` likewise attaches a
    :class:`~repro.telemetry.registry.MetricRegistry` before construction
    (instrumented layers cache the handle) plus a per-HAU
    :class:`~repro.telemetry.sampler.Sampler`; the result's
    ``telemetry_snapshot()`` / ``write_telemetry()`` expose the metrics.
    """
    monitor_on = cfg.monitor_period > 0.0
    env = Environment()
    # The monitoring plane reads trace events and registry metrics, so a
    # monitored run enables both (and exposes them on the result).
    tracer = env.enable_tracing() if (trace or monitor_on) else None
    registry = env.enable_telemetry() if (telemetry or monitor_on) else None
    builder = APPS[cfg.app]
    app = builder.build(seed=cfg.seed, **cfg.app_params)
    runtime = DSPSRuntime(
        env,
        app,
        make_scheme(cfg),
        RuntimeConfig(
            seed=cfg.seed,
            cluster=ClusterSpec(workers=cfg.workers, spares=cfg.spares, racks=cfg.racks),
            # Modest buffers: enough to keep the pipeline busy, small
            # enough that in-band token collection (queue drain at the
            # saturated stage) stays well inside a checkpoint period.
            channel_capacity=16,
            inbox_capacity=32,
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
    state_trace = StateTraceRecorder(runtime) if trace_state else None
    sampler = (
        Sampler(runtime, registry=registry, interval=telemetry_interval)
        if telemetry
        else None
    )

    if failure_at is not None:

        def killer():
            yield env.timeout(failure_at)
            targets = failure_targets
            if targets is None:
                # worst case: every node hosting an HAU fails (§IV-C)
                targets = sorted({h.node.node_id for h in runtime.haus.values()})
            for node_id in targets:
                node = runtime.dc.node(node_id)
                if node.alive:
                    node.fail("experiment")
                    if env.telemetry.enabled:
                        env.telemetry.counter(
                            "ms_failures_injected_total", kind="node"
                        ).inc()
                    if env.trace.enabled:
                        env.trace.emit(
                            "failure.inject",
                            t=env.now,
                            subject=node_id,
                            kind="node",
                            cause="experiment",
                        )

        env.process(killer(), label="experiment-killer")

    env.run(until=cfg.end)

    probe = app.params.get("probe_prefix", "")
    throughput = runtime.metrics.stage_throughput(probe, cfg.warmup, cfg.end)
    latency = runtime.metrics.stage_latency(probe, cfg.warmup, cfg.end)
    percentiles = runtime.metrics.stage_latency_percentiles(probe, cfg.warmup, cfg.end)
    return ExperimentResult(
        config=cfg,
        throughput=throughput,
        latency=latency,
        scheme=runtime.scheme,
        runtime=runtime,
        state_trace=state_trace,
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
    result = run_experiment(observe, trace_state=True)
    n = max(1, cfg.n_checkpoints)
    period = cfg.window / n
    minima = result.state_trace.minima_per_period(cfg.warmup, period, cfg.end)
    return [t for (t, _s) in minima]
