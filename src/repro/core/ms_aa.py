"""MS-src+ap+aa: application-aware Meteor Shower (§III-C).

Adds checkpoint *timing* intelligence on top of MS-src+ap:

1. **Profiling** — for ``profile_duration`` seconds every HAU's
   ``state_size()`` is sampled; HAUs whose minimum is below half their
   average are *dynamic*; the per-period minima of the aggregated dynamic
   state derive ``smax`` (relaxation-bounded, §III-C2).
2. **Alert mode** — per checkpoint period, the controller queries the
   dynamic HAUs (at the period start, and whenever one reports a
   more-than-half drop at a turning point); if the total is below
   ``smax`` the system enters alert mode.
3. **Trigger** — in alert mode dynamic HAUs actively report turning
   points with their instantaneous change rates; when the aggregated ICR
   turns positive the controller "foresees a state size increase" and
   initiates the checkpoint round immediately.  If alert mode never
   fires, the checkpoint happens at the period end anyway.

A report is appended to a plain list and the controller, parked with the
period's end as its deadline, is unparked; one it was not parked for
(it was busy) waits in the list for its next look.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ms_ap import MSSrcAP
from repro.simulation.core import Interrupt, Process
from repro.state.profile import ProfileResult, StateProfile
from repro.state.turning import TurningPointDetector

DEFAULT_SAMPLE_INTERVAL = 1.0
HALF_DROP = 0.5
# Profiling (StateProfile): a HAU whose average state is below this is not
# worth optimising, and the first quarter of the profiling window (the
# cold-start ramp) is not classified.
MIN_DYNAMIC_BYTES = 1_000_000.0
PROFILE_STARTUP_SKIP = 0.25


@dataclass(frozen=True)
class TurningReport:
    """A dynamic HAU's turning-point report to the controller."""

    hau_id: str
    time: float
    size: float
    icr: float
    kind: str  # "min" | "max"


class MSSrcAPAA(MSSrcAP):
    name = "ms-src+ap+aa"

    def __init__(
        self,
        checkpoint_period: float,
        profile_duration: float = 60.0,
        sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
        max_rounds: int | None = None,
        **kwargs,
    ):
        super().__init__(checkpoint_times=None, **kwargs)
        self.checkpoint_period = float(checkpoint_period)
        self.profile_duration = float(profile_duration)
        self.sample_interval = float(sample_interval)
        self.max_rounds = max_rounds
        self.profile_result: ProfileResult | None = None
        self.dynamic_haus: list[str] = []
        self._reports: list[TurningReport] = []
        self._controller: Process | None = None
        self._last_icr: dict[str, float] = {}
        self._last_max: dict[str, float] = {}
        # controller's view per HAU: (report time, size at that time).
        # Totals are linearly extrapolated with the last known ICR — the
        # paper's piecewise-linear reconstruction from turning points.
        self._last_size: dict[str, tuple[float, float]] = {}

    @classmethod
    def from_config(cls, cfg) -> MSSrcAPAA:
        period = cfg.window / max(1, cfg.n_checkpoints)
        return cls(
            checkpoint_period=period,
            profile_duration=cfg.warmup * 0.8,
            sample_interval=max(0.5, period / 40.0),
            max_rounds=cfg.n_checkpoints,
            costs=cfg.costs,
            enable_recovery=cfg.enable_recovery,
        )

    # -- lifecycle ---------------------------------------------------------------------
    def start(self) -> None:
        super().start()  # failure watcher (no coordinator: no checkpoint_times)
        if self.max_rounds == 0:
            return  # no rounds: nothing to profile for, as ms-src+ap with none
        self._controller = self.runtime.dc.storage_node.spawn(
            self._aa_controller(), label="aa.controller"
        )

    # -- controller-side protocol ---------------------------------------------------------
    def _query_total_size(self):
        """Query each dynamic HAU's state size (one control RTT each,
        issued in parallel — bill a single RTT) and cache the answers."""
        env = self.runtime.env
        yield env.timeout(self.costs.control_rtt)
        for hau_id in self.dynamic_haus:
            hau = self.runtime.haus.get(hau_id)
            if hau is not None and hau.node.alive:
                self._last_size[hau_id] = (env.now, float(hau.state_size()))
        return self._known_total()

    def _known_total(self) -> float:
        """The controller's reconstructed total dynamic state size.

        §III-C2: sizes between turning points are "roughly recovered by
        linear interpolation", so each HAU's last report is extrapolated
        forward with its last known ICR (clamped at zero)."""
        now = self.runtime.env.now
        total = 0.0
        for h in self.dynamic_haus:
            t, size = self._last_size.get(h, (now, 0.0))
            icr = self._last_icr.get(h, 0.0)
            total += max(0.0, size + icr * (now - t))
        return total

    def _aa_controller(self):
        env = self.runtime.env
        try:
            # ---- profiling phase -------------------------------------------------
            profile = StateProfile(
                checkpoint_period=self.checkpoint_period,
                min_dynamic_bytes=MIN_DYNAMIC_BYTES,
                startup_skip=PROFILE_STARTUP_SKIP,
            )
            t_end = env.now + self.profile_duration
            while env.now < t_end:
                yield env.timeout(self.sample_interval)
                for hau_id, hau in self.runtime.haus.items():
                    if hau.node.alive:
                        profile.observe(hau_id, env.now, float(hau.state_size()))
            self.profile_result = profile.result()
            self.dynamic_haus = list(self.profile_result.dynamic_haus)
            self.transition(
                "aa.profile", self.name,
                dynamic=",".join(sorted(self.dynamic_haus)),
                smax=float(self.profile_result.smax),
            )
            for hau_id in self.dynamic_haus:
                hau = self.runtime.haus.get(hau_id)
                if hau is not None and hau.node.alive:
                    hau.node.spawn(
                        self._sampler(hau_id), label=f"aa.sampler.{hau_id}"
                    )
            # ---- execution: one checkpoint per period ---------------------------------
            rounds = 0
            while self.max_rounds is None or rounds < self.max_rounds:
                deadline = env.now + self.checkpoint_period
                yield from self._run_period(deadline)
                rounds += 1
                if env.now < deadline:
                    yield env.timeout(deadline - env.now)
        except Interrupt:
            return

    def _run_period(self, deadline: float):
        """Wait for the best checkpoint instant within one period."""
        env = self.runtime.env
        smax = self.profile_result.smax if self.profile_result else 0.0
        alert = False
        if self.dynamic_haus and smax > 0:
            total = yield from self._query_total_size()
            alert = total < smax
            if alert:
                self.transition(
                    "aa.alert.enter", self.name,
                    total=float(total), smax=float(smax), via="query",
                )
        while env.now < deadline:
            if not self.dynamic_haus or smax <= 0:
                break  # nothing to be aware of: fall through to period end
            report = yield from self._next_report(deadline)
            if report is None:
                break  # period expired
            yield env.timeout(self.costs.control_rtt / 2)  # report latency
            self._last_icr[report.hau_id] = report.icr
            self._last_size[report.hau_id] = (report.time, report.size)
            self.transition(
                "aa.turning_point", report.hau_id,
                at=report.time, size=float(report.size), icr=float(report.icr), turn=report.kind,
            )
            if not alert:
                # A more-than-half drop at a turning point triggers the
                # controller to check the total state size *at that point*
                # (rebuilt from reports — Fig. 11's p4, not a re-query).
                prev_max = self._last_max.get(report.hau_id, 0.0)
                if report.kind == "max":
                    self._last_max[report.hau_id] = report.size
                elif prev_max > 0 and report.size < HALF_DROP * prev_max:
                    total = self._known_total()
                    alert = total < smax
                    if alert:
                        self.transition(
                            "aa.alert.enter", self.name,
                            total=float(total), smax=float(smax), via="half-drop",
                        )
            if alert:
                aggregate = sum(self._last_icr.get(h, 0.0) for h in self.dynamic_haus)
                if aggregate > 0:
                    # "Once the controller foresees a state size increase in
                    # alert mode, it initiates a checkpoint."
                    self.transition(
                        "aa.decision", self.name, reason="icr", aggregate_icr=float(aggregate)
                    )
                    self.initiate_round()
                    return
        # "In the rare case where the total state size is never below smax
        # during a period, a checkpoint will be performed anyway."
        if env.now < deadline:
            yield env.timeout(deadline - env.now)
        self.transition("aa.decision", self.name, reason="deadline")
        self.initiate_round()

    def _next_report(self, deadline: float):
        """Next turning-point report, or None at the deadline.  A deadline
        with no report takes one more turn of its instant, so a report due
        at that instant itself is taken before the fallback."""
        env = self.runtime.env
        reports = self._reports
        if not reports:
            yield env.timeout(deadline - env.now, env.parked)
            if not reports:
                yield env.timeout(0.0)
        return reports.pop(0) if reports else None

    # -- HAU-side sampling -----------------------------------------------------------------
    def _sampler(self, hau_id: str):
        """Dynamic-HAU process: sample state size, report turning points."""
        env = self.runtime.env
        detector = TurningPointDetector()
        try:
            while True:
                yield env.timeout(self.sample_interval)
                hau = self.runtime.haus.get(hau_id)
                if hau is None or not hau.node.alive:
                    return
                tp = detector.observe(env.now, float(hau.state_size()))
                if tp is not None:
                    self._reports.append(
                        TurningReport(
                            hau_id=hau_id, time=tp.time, size=tp.size, icr=tp.icr, kind=tp.kind
                        )
                    )
                    env.unpark(self._controller)
        except Interrupt:
            return
