"""The live monitoring plane: deterministic in-simulation observability.

A :class:`MonitorPlane` evaluates windowed telemetry on a fixed
sim-time period.  Each *tick* it

1. folds the trace events emitted since the previous tick into SLO
   samples (checkpoint durations, recovery times, commit recency) and
   the health state machine,
2. reads counter deltas and exact (nearest-rank) percentiles from the
   :class:`~repro.telemetry.registry.MetricRegistry` (pure reads),
3. advances every burn-rate evaluator and emits ``alert.fire`` /
   ``alert.resolve`` trace events plus ``ms_alerts_*`` metrics, and
4. appends one row to the window series.

Determinism contract: ticks are scheduled at :data:`~repro.simulation.
core.MONITOR` priority, which sorts *after* every workload event at the
same instant — the plane observes each instant only once it has fully
settled, and the workload's own event order (and therefore the
determinism digest) is bit-identical with monitoring on or off.

The same class replays offline: :meth:`run_offline` drives the tick
loop from a recorded trace (``python -m repro.monitor trace.jsonl``),
with the registry-backed SLOs inactive (a trace carries no registry)
and everything trace-derived producing the identical alert log and
health timeline the live run produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.monitor.health import HealthTracker
from repro.monitor.slo import PER_HAU_KINDS, SLO, BurnEvaluator, default_slos
from repro.monitor.windows import CounterWindow
from repro.observability.tracer import NULL_TRACER, TraceEvent
from repro.telemetry.registry import NULL_REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence

    from repro.profiling.spans import Ev
    from repro.simulation.core import Environment

# Trace kinds that open/close a recovery-time measurement.  MS schemes
# use recovery.start/done; the 1-safe baseline has its own pair.
_RECOVERY_STARTS = ("recovery.start", "baseline.recover.start")
_RECOVERY_ENDS = ("recovery.done", "baseline.recover.done")


class MonitorPlane:
    """Windowed SLO evaluation + health tracking for one run."""

    def __init__(
        self,
        period: float,
        slos: tuple[SLO, ...] | None = None,
        racks: dict[str, str] | None = None,
        nodes: dict[str, str] | None = None,
    ):
        if not period > 0.0:
            raise ValueError(f"monitor period must be > 0, got {period!r}")
        self.period = float(period)
        self.slos = tuple(slos) if slos is not None else default_slos()
        self.ticks = 0
        self.alerts: list[dict[str, Any]] = []
        self.series: list[dict[str, Any]] = []
        self.health = HealthTracker(racks=racks, nodes=nodes)
        self._env: Environment | None = None
        self._trace = NULL_TRACER
        self._telem = NULL_REGISTRY
        self._cursor = 0  # index into the tracer's event list
        self._evaluators: dict[tuple[str, str], BurnEvaluator] = {}
        self._slo_by_kind = {s.kind: s for s in self.slos}
        # trace-derived bookkeeping
        self._write_start: dict[str, float] = {}  # hau -> checkpoint.write.start t
        self._last_commit: dict[str, float] = {}  # hau -> last checkpoint.commit t
        self._recovery_start: float | None = None
        self._tuples_window = CounterWindow()
        self._samples_folded = 0

    # -- kernel wiring -------------------------------------------------------
    def attach(self, env: "Environment") -> "MonitorPlane":
        """Ride on a live environment: read its tracer/registry and start
        the tick schedule.  Call after ``enable_tracing``/``enable_telemetry``
        (the plane reads whichever are enabled) and before ``env.run``."""
        self._env = env
        self._trace = env.trace
        self._telem = env.telemetry
        self._schedule_tick()
        return self

    def _schedule_tick(self) -> None:
        from repro.simulation.core import MONITOR, Event

        env = self._env
        assert env is not None
        ev = Event(env, name="monitor-tick")
        ev.add_callback(self._on_tick)
        env._schedule(ev, delay=self.period, priority=MONITOR)

    def _on_tick(self, _event: Any) -> None:
        env = self._env
        assert env is not None
        self.tick(env.now)
        self._schedule_tick()

    # -- the tick ------------------------------------------------------------
    def tick(self, now: float) -> None:
        """One window evaluation at sim-time ``now``."""
        self.ticks += 1
        if self._trace.enabled:
            events = self._trace.events
            self._ingest(events[self._cursor:])
            self._cursor = len(events)
        self._sample_registry(now)
        self._sample_staleness(now)
        self._evaluate(now)
        self._append_series_row(now)
        if self._telem.enabled:
            self._telem.counter("ms_monitor_ticks_total").inc()

    # -- trace ingestion -----------------------------------------------------
    def _ingest(self, events: "Sequence[TraceEvent | Ev]") -> None:
        for e in events:
            kind = e.kind
            if kind == "checkpoint.write.start":
                self._write_start[e.subject] = e.t
            elif kind == "checkpoint.commit":
                started = self._write_start.pop(e.subject, None)
                if started is not None:
                    self._observe(e.t, "checkpoint-duration", "", e.t - started)
                self._last_commit[e.subject] = e.t
            elif kind in _RECOVERY_STARTS:
                if self._recovery_start is None:
                    self._recovery_start = e.t
                self.health.on_trace_event(e.t, "recovery.start", e.subject)
            elif kind in _RECOVERY_ENDS:
                if self._recovery_start is not None:
                    self._observe(e.t, "recovery-time", "", e.t - self._recovery_start)
                    self._recovery_start = None
                self.health.on_trace_event(e.t, "recovery.done", e.subject)
            elif kind == "hau.start":
                self.health.learn_placement(e.subject, str(e.get("node", "")))
                self.health.on_trace_event(e.t, kind, e.subject)
            elif kind in ("failure.inject", "recovery.hau.start", "recovery.hau"):
                if kind == "recovery.hau":
                    node = str(e.get("node", ""))
                    if node:
                        self.health.learn_placement(e.subject, node)
                self.health.on_trace_event(e.t, kind, e.subject)

    # -- registry + derived samples ------------------------------------------
    def _sample_registry(self, now: float) -> None:
        if not self._telem.enabled or "latency-p99" not in self._slo_by_kind:
            return
        worst = None
        for metric in self._telem.select("ms_hau_tuple_latency_seconds"):
            if getattr(metric, "count", 0) > 0:
                p99 = metric.percentile(0.99)
                worst = p99 if worst is None else max(worst, p99)
        if worst is not None:
            self._observe(now, "latency-p99", "", worst)

    def _sample_staleness(self, now: float) -> None:
        slo = self._slo_by_kind.get("checkpoint-staleness")
        if slo is None:
            return
        for hau in sorted(self._last_commit):
            staleness = now - self._last_commit[hau]
            self._observe(now, "checkpoint-staleness", hau, staleness)
            self.health.on_sample(now, hau, "checkpoint-staleness", staleness <= slo.bound)

    def _observe(self, t: float, kind: str, subject: str, value: float) -> None:
        slo = self._slo_by_kind.get(kind)
        if slo is None:
            return
        key = (kind, subject if kind in PER_HAU_KINDS else "")
        evaluator = self._evaluators.get(key)
        if evaluator is None:
            evaluator = self._evaluators[key] = BurnEvaluator(slo, key[1])
        evaluator.observe(t, float(value) <= slo.bound)
        self._samples_folded += 1
        if self._telem.enabled:
            self._telem.counter("ms_monitor_samples_total", slo=kind).inc()

    # -- burn-rate evaluation ------------------------------------------------
    def _evaluate(self, now: float) -> None:
        for key in sorted(self._evaluators):
            evaluator = self._evaluators[key]
            action = evaluator.evaluate(now)
            if action is None:
                continue
            kind, subject = key
            row = {
                "t": now,
                "slo": kind,
                "subject": subject,
                "action": action,
                "burn_fast": evaluator.burn_fast,
                "burn_slow": evaluator.burn_slow,
            }
            self.alerts.append(row)
            self.health.on_alert(now, subject, kind, action)
            if action == "fire":
                if self._trace.enabled:
                    self._trace.emit(
                        "alert.fire",
                        t=now,
                        subject=subject,
                        slo=kind,
                        burn_fast=evaluator.burn_fast,
                        burn_slow=evaluator.burn_slow,
                    )
                if self._telem.enabled:
                    self._telem.counter("ms_alerts_fired_total", slo=kind).inc()
                    self._telem.gauge("ms_alerts_active").inc()
            else:
                if self._trace.enabled:
                    self._trace.emit(
                        "alert.resolve",
                        t=now,
                        subject=subject,
                        slo=kind,
                        burn_fast=evaluator.burn_fast,
                        burn_slow=evaluator.burn_slow,
                    )
                if self._telem.enabled:
                    self._telem.counter("ms_alerts_resolved_total", slo=kind).inc()
                    self._telem.gauge("ms_alerts_active").dec()

    def _append_series_row(self, now: float) -> None:
        tuples_total = 0.0
        latency_p99 = 0.0
        if self._telem.enabled:
            for metric in self._telem.select("ms_hau_tuples_total"):
                tuples_total += metric.value
            for metric in self._telem.select("ms_hau_tuple_latency_seconds"):
                if getattr(metric, "count", 0) > 0:
                    latency_p99 = max(latency_p99, metric.percentile(0.99))
        delta = self._tuples_window.advance(now, tuples_total)
        staleness_max = 0.0
        if self._last_commit:
            staleness_max = max(now - t for t in self._last_commit.values())
        self.series.append(
            {
                "t": now,
                "tuples_delta": delta,
                "tuples_rate": delta / self.period,
                "latency_p99": latency_p99,
                "staleness_max": staleness_max,
                "alerts_active": self.active_alerts(),
            }
        )

    # -- offline replay ------------------------------------------------------
    def run_offline(
        self, events: "Sequence[TraceEvent | Ev]", until: float | None = None
    ) -> None:
        """Drive the tick loop from a recorded trace (no environment):
        live ``TraceEvent`` records, or the ``Ev`` rows
        ``normalize_events`` reads back from a file.

        Ticks run at ``period, 2*period, ...`` through ``until``
        (default: the last event's timestamp — the live plane cannot
        tick past the end of the simulation, so neither does replay),
        each fed the events that fall inside it — the same slicing the
        live schedule produces.  Registry-backed SLOs are inactive (a
        trace carries no registry); everything trace-derived reproduces
        the live run exactly.
        """
        if self._env is not None:
            raise RuntimeError("plane is attached to a live environment")
        if until is None:
            until = events[-1].t if events else 0.0
        cursor = 0
        now = 0.0
        while now + self.period <= until:
            now += self.period
            upto = cursor
            while upto < len(events) and events[upto].t <= now:
                upto += 1
            self._ingest(events[cursor:upto])
            cursor = upto
            self.ticks += 1
            self._sample_staleness(now)
            self._evaluate(now)
            self._append_series_row(now)

    # -- exports -------------------------------------------------------------
    def active_alerts(self) -> int:
        return sum(1 for e in self._evaluators.values() if e.active)

    def summary(self) -> dict[str, Any]:
        by_slo: dict[str, dict[str, int]] = {}
        for row in self.alerts:
            bucket = by_slo.setdefault(row["slo"], {"fired": 0, "resolved": 0})
            bucket["fired" if row["action"] == "fire" else "resolved"] += 1
        return {
            "fired": sum(b["fired"] for b in by_slo.values()),
            "resolved": sum(b["resolved"] for b in by_slo.values()),
            "active": self.active_alerts(),
            "by_slo": dict(sorted(by_slo.items())),
        }

    def as_dict(self) -> dict[str, Any]:
        """The JSON-ready alerts block (payloads, bundles, artifacts)."""
        return {
            "period": self.period,
            "ticks": self.ticks,
            "summary": self.summary(),
            "log": list(self.alerts),
        }
