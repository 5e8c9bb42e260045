"""The registry of one finished run, folded from what the run recorded.

Nothing in the simulated system counts a metric.  Every counter, gauge
and histogram of ``vocabulary.METRICS`` and ``SERIES_METRICS`` is built
here, once, after the run, from records the run keeps anyway:

- the trace (a telemetry run turns it on): tokens, control messages,
  rounds, commits, async forks, injected failures, 1-safe restarts and
  the aa controller's profile, turning points and decisions;
- the stage samples: per-HAU tuple counts and latency histograms;
- the scheme's :class:`~repro.metrics.breakdown.RunRecord`: rollbacks and
  the holdback each checkpoint released;
- small exact totals on the runtime: each HAU's busy seconds (carried
  across its rebuilds) and the storage bytes per namespace;
- the :class:`~repro.telemetry.sampler.Sampler`'s series: each gauge is
  the last point of its series;
- the monitor's ticks, SLO samples and alert log.

Each metric is fed in the order its live counterpart was, so every value
is bit-for-bit what counting during the run gave.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.registry import MetricRegistry
from repro.vocabulary import SERIES_METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dsps.runtime import DSPSRuntime
    from repro.monitor.plane import MonitorPlane
    from repro.telemetry.sampler import Sampler


def fold_run(
    registry: MetricRegistry,
    runtime: "DSPSRuntime",
    sampler: "Sampler | None" = None,
    monitor: "MonitorPlane | None" = None,
) -> MetricRegistry:
    """Fill ``registry`` from a finished run's records; returns it."""
    _haus(registry, runtime)
    _trace(registry, runtime)
    record = runtime.scheme.record
    for rec in record.recoveries:
        if rec.complete:
            registry.counter("ms_recoveries_total", scheme=rec.scheme).inc()
            registry.histogram("ms_recovery_seconds", scheme=rec.scheme).observe(rec.total)
    for log in record.logs.values():
        for bd in log.haus.values():
            if bd.holdback_drained:
                registry.counter("ms_holdback_drained_total", hau=bd.hau_id).inc(
                    bd.holdback_drained
                )
    storage = runtime.storage
    for namespace, size in storage.written_by_namespace.items():
        registry.counter("ms_storage_bytes_written_total", namespace=namespace).inc(size)
    for namespace, size in storage.read_by_namespace.items():
        registry.counter("ms_storage_bytes_read_total", namespace=namespace).inc(size)
    if sampler is not None:
        for metric in SERIES_METRICS:
            if metric == "ms_hau_ckpt_write_seconds":
                continue  # a commit's gauge, not the sampler's: folded from the trace
            for hau_id, points in sampler.series[metric].items():
                registry.gauge(metric, hau=hau_id).set(points[-1][1])
    if monitor is not None:
        _monitor(registry, monitor)
    return registry


def _haus(registry: MetricRegistry, runtime: "DSPSRuntime") -> None:
    """Per HAU: processed tuples and their latencies (the stage samples),
    busy seconds; every HAU of the graph has them, zero or not."""
    latency = {
        hau_id: registry.histogram("ms_hau_tuple_latency_seconds", hau=hau_id)
        for hau_id in runtime.haus
    }
    for hau_id, created_at, processed_at in runtime.metrics.stage_samples:
        latency[hau_id].observe(processed_at - created_at)
    for hau_id, hau in runtime.haus.items():
        registry.counter("ms_hau_tuples_total", hau=hau_id).inc(latency[hau_id].count)
        registry.counter("ms_hau_busy_seconds_total", hau=hau_id).inc(hau.busy_total)
        registry.counter("ms_hau_tokens_sent_total", hau=hau_id)
        registry.counter("ms_hau_tokens_received_total", hau=hau_id)


def _trace(registry: MetricRegistry, runtime: "DSPSRuntime") -> None:
    """One pass over the trace, in emission order."""
    logs = runtime.scheme.record.logs
    writes: dict[tuple[int, str], tuple[float | None, int]] = {}  # (round, hau) -> start, bytes
    for e in runtime.env.trace.events:
        kind = e.kind
        if kind == "token.send":
            registry.counter("ms_hau_tokens_sent_total", hau=e.subject).inc()
        elif kind == "token.recv":
            registry.counter("ms_hau_tokens_received_total", hau=e.subject).inc()
        elif kind == "control.send":
            registry.counter("ms_control_messages_total", direction="down").inc()
        elif kind == "checkpoint.round.start":
            registry.counter("ms_checkpoint_rounds_total", scheme=e.subject).inc()
        elif kind == "checkpoint.round.complete":
            registry.counter("ms_checkpoint_rounds_completed_total", scheme=e.subject).inc()
        elif kind == "checkpoint.write.start":
            writes[int(e.get("round", 0)), e.subject] = (e.t, int(e.get("bytes", 0)))
        elif kind == "checkpoint.commit":
            key = (int(e.get("round", 0)), e.subject)
            started, size = writes.get(key, (None, 0))
            writes[key] = (started, size := int(e.get("bytes", size)))
            if started is not None:
                scheme = str(e.get("scheme", ""))
                seconds = e.t - started
                registry.histogram("ms_checkpoint_write_seconds", scheme=scheme).observe(seconds)
                registry.counter("ms_checkpoint_bytes_total", scheme=scheme).inc(size)
                registry.gauge("ms_hau_ckpt_write_seconds", hau=e.subject).set(seconds)
        elif kind == "checkpoint.start" and e.get("mode") == "async":
            scheme = str(e.get("scheme", ""))
            fork = logs[int(e.get("round", 0))].haus[e.subject].fork_seconds
            registry.histogram("ms_fork_seconds", scheme=scheme).observe(fork)
            registry.counter("ms_async_checkpoints_total", scheme=scheme).inc()
        elif kind == "failure.inject":
            registry.counter("ms_failures_injected_total", kind=e.get("kind")).inc()
        elif kind == "baseline.recover.done":
            registry.counter("ms_baseline_recovered_total").inc()
        elif kind == "baseline.unrecoverable":
            registry.counter(
                "ms_baseline_unrecoverable_total", cause=str(e.get("cause", ""))
            ).inc()
        elif kind == "aa.profile":
            dynamic = e.get("dynamic")
            registry.gauge("ms_aa_smax_bytes").set(e.get("smax"))
            registry.gauge("ms_aa_dynamic_haus").set(len(dynamic.split(",")) if dynamic else 0)
        elif kind == "aa.turning_point":
            registry.counter("ms_aa_turning_points_total", hau=e.subject).inc()
        elif kind == "aa.decision":
            registry.counter("ms_aa_decisions_total", reason=e.get("reason")).inc()


def _monitor(registry: MetricRegistry, monitor: "MonitorPlane") -> None:
    """The monitor's ticks, SLO samples and alert log."""
    if monitor.ticks:
        registry.counter("ms_monitor_ticks_total").inc(monitor.ticks)
    for slo, count in monitor.slo_samples.items():
        registry.counter("ms_monitor_samples_total", slo=slo).inc(count)
    for row in monitor.alerts:
        if row["action"] == "fire":
            registry.counter("ms_alerts_fired_total", slo=row["slo"]).inc()
            registry.gauge("ms_alerts_active").inc()
        else:
            registry.counter("ms_alerts_resolved_total", slo=row["slo"]).inc()
            registry.gauge("ms_alerts_active").dec()
