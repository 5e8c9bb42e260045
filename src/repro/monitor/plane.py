"""The monitoring plane: deterministic observability over a finished run.

A :class:`MonitorPlane` evaluates windowed telemetry on a fixed
sim-time period.  Each *tick* it

1. folds the trace events due by its instant into SLO samples
   (checkpoint durations, recovery times, commit recency) and the
   health state machine,
2. folds the stage samples processed by its instant (the
   ``(hau, created_at, processed_at)`` records of
   :attr:`~repro.metrics.collectors.MetricsHub.stage_samples`) into a
   tuple count and a per-HAU exact (nearest-rank) p99 latency,
3. advances every burn-rate evaluator and logs ``fire`` / ``resolve``
   alerts (a telemetry fold counts them in the ``ms_alerts_*`` metrics), and
4. appends one row to the window series.

The plane runs after the simulation, never inside it: nothing acts on
an alert during a run, so ticking once the run is over sees exactly
what a tick at the end of each instant would have seen, and the
workload's event order (and therefore the determinism digest) cannot
depend on monitoring.  :meth:`finish` ticks over a live run's trace and
stage samples and splices the ``alert.fire`` / ``alert.resolve`` rows
into the trace after the last event due by their tick;
:meth:`run_offline` ticks over a recorded trace (``python -m
repro.monitor trace.jsonl``), where the latency SLO is inactive (a
trace carries no stage samples) and everything trace-derived produces
the identical alert log and health timeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.monitor.health import HealthTracker
from repro.monitor.slo import PER_HAU_KINDS, SLO, BurnEvaluator, default_slos
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.telemetry.registry import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence

    from repro.metrics.collectors import Sample
    from repro.observability.tracer import TraceEvent
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
        self.slo_samples: dict[str, int] = {}  # SLO kind -> samples observed
        self.alerts: list[dict[str, Any]] = []
        self.series: list[dict[str, Any]] = []
        self.health = HealthTracker(racks=racks, nodes=nodes)
        self._attached = False
        self._trace = NULL_TRACER
        self._evaluators: dict[tuple[str, str], BurnEvaluator] = {}
        self._slo_by_kind = {s.kind: s for s in self.slos}
        # trace-derived bookkeeping
        self._write_start: dict[str, float] = {}  # hau -> checkpoint.write.start t
        self._last_commit: dict[str, float] = {}  # hau -> last checkpoint.commit t
        self._recovery_start: float | None = None
        self._latency: dict[str, Histogram] = {}  # hau -> its stage samples' latencies

    # -- live runs -----------------------------------------------------------
    def attach(self, env: "Environment") -> "MonitorPlane":
        """Bind a live environment's tracer, which :meth:`finish` reads
        and splices once the run is over."""
        self._attached = True
        self._trace = env.trace
        return self

    def finish(self, samples: "Sequence[Sample]", until: float) -> None:
        """Tick over a finished live run through ``until`` (its end).

        Each tick is fed the trace events and the stage ``samples`` due
        by its instant; the alert rows it logs are spliced into the trace
        after the last event due by then, where a tick at the end of that
        instant would have emitted them, and ``seq`` is renumbered.
        """
        at = self._run(self._trace.events, until, samples)
        if not (at and self._trace.enabled):
            return
        tracer = Tracer()  # the rows alone; the splice renumbers them
        for row in self.alerts:
            data = {k: row[k] for k in ("subject", "slo", "burn_fast", "burn_slow")}
            if row["action"] == "fire":
                tracer.emit("alert.fire", t=row["t"], **data)
            else:
                tracer.emit("alert.resolve", t=row["t"], **data)
        self._trace.splice(zip(at, tracer.events))

    # -- the tick ------------------------------------------------------------
    def _run(
        self, events: "Sequence[TraceEvent]", until: float, samples: "Sequence[Sample]" = ()
    ) -> list[int]:
        """Tick at ``period, 2*period, ...`` through ``until``, each tick
        fed the ``events`` (time-sorted) and ``samples`` (in
        ``processed_at`` order) due by its instant.  Returns, per logged
        alert, how many events were due by its tick."""
        at: list[int] = []
        cursor = fed = 0
        now = 0.0
        while now + self.period <= until:
            now += self.period
            upto, due = cursor, fed
            while upto < len(events) and events[upto].t <= now:
                upto += 1
            while due < len(samples) and samples[due][2] <= now:
                due += 1
            logged = len(self.alerts)
            self.tick(now, events[cursor:upto], samples[fed:due])
            at += [upto] * (len(self.alerts) - logged)
            cursor, fed = upto, due
        return at

    def tick(
        self, now: float, events: "Sequence[TraceEvent]", samples: "Sequence[Sample]"
    ) -> None:
        """One window evaluation at sim-time ``now`` over the trace
        ``events`` and stage ``samples`` that arrived since the previous
        tick."""
        self.ticks += 1
        self._ingest(events)
        latency = self._latency
        for hau, created_at, processed_at in samples:
            if hau not in latency:
                latency[hau] = Histogram(hau, percentiles=(0.99,))
            latency[hau].observe(processed_at - created_at)
        # the worst HAU's nearest-rank p99 tuple latency so far
        p99 = max((record.percentile(0.99) for record in latency.values()), default=None)
        if p99 is not None:
            self._observe(now, "latency-p99", "", p99)
        self._sample_staleness(now)
        self._evaluate(now)
        self._append_series_row(now, float(len(samples)), p99 or 0.0)

    # -- trace ingestion -----------------------------------------------------
    def _ingest(self, events: "Sequence[TraceEvent]") -> None:
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

    # -- derived samples -----------------------------------------------------
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
        self.slo_samples[kind] = self.slo_samples.get(kind, 0) + 1

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

    def _append_series_row(self, now: float, tuples: float, latency_p99: float) -> None:
        staleness_max = 0.0
        if self._last_commit:
            staleness_max = max(now - t for t in self._last_commit.values())
        self.series.append(
            {
                "t": now,
                "tuples_delta": tuples,
                "tuples_rate": tuples / self.period,
                "latency_p99": latency_p99,
                "staleness_max": staleness_max,
                "alerts_active": self.active_alerts(),
            }
        )

    # -- offline replay ------------------------------------------------------
    def run_offline(self, events: "Sequence[TraceEvent]", until: float | None = None) -> None:
        """Tick over a recorded trace (no environment, no stage samples).

        Ticks run at ``period, 2*period, ...`` through ``until``, each
        fed the events due by its instant — the slicing :meth:`finish`
        applies to a live run.  ``until`` defaults to the last event's
        timestamp, so a replay of a trace file stops at its last event,
        while the live run ticked through its end: a run whose last
        event comes a period or more before its end ticks more often
        than its replay.  Without stage samples the latency SLO is
        inactive; everything trace-derived reproduces the live run
        exactly.
        """
        if self._attached:
            raise RuntimeError("plane is attached to a live environment")
        if until is None:
            until = events[-1].t if events else 0.0
        self._run(events, until)

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
