"""Failure injection into the simulated cluster.

Turns the statistical failure model into concrete events on a
:class:`~repro.cluster.topology.DataCenter`.  Four event kinds
(:data:`FAILURE_KINDS`, from ``repro.vocabulary``; each is executed by
the ``_inject_<kind>`` method of :class:`FailureInjector`):

* ``node`` — fail-stop of one node (ooops/disk/memory causes);
* ``rack`` — rack-correlated burst: every worker and spare in the rack
  fail-stops (the large-scale failures Meteor Shower is built for); the
  shared-storage node is in no rack's failure domain — a ``node`` kill
  of ``storage`` is its own failure;
* ``partition`` — network partition around one rack: every channel
  crossing the rack boundary has its latency multiplied by ``factor``
  for ``duration`` seconds (nodes stay alive; tokens and data stall);
* ``straggler`` — gray failure of one node: its NIC and disk bandwidth
  are divided by ``factor`` for ``duration`` seconds, so transfers
  through it take ``factor``× longer.

Degradations (``partition``/``straggler``) compose multiplicatively, so
overlapping events restore cleanly in any order; ``duration <= 0`` means
the degradation lasts for the rest of the run.  ``node``/``straggler``
targets resolve against every node the data center ever created —
spares that recovery has claimed included, so a node hosting
*recovered* HAUs can fail again; an id that was never part of the
cluster is skipped silently (synthetic failure traces may name nodes a
smaller simulated cluster does not have).  Plans are sampled (or
declared — see :mod:`repro.scenarios`) up front and are deterministic
given the RNG stream, so experiments can be replayed and compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from repro.cluster.topology import DataCenter
from repro.simulation.core import Environment, Interrupt
from repro.vocabulary import FAILURE_KINDS

#: Default degradation magnitudes (used by the scenario compiler when a
#: document omits ``factor``).
DEFAULT_PARTITION_FACTOR = 200.0
DEFAULT_STRAGGLER_FACTOR = 10.0


@dataclass(frozen=True)
class PlannedFailure:
    """One failure event scheduled for injection.

    ``duration``/``factor`` only apply to the degradation kinds
    (``partition``/``straggler``); fail-stop kinds ignore them.
    """

    at: float  # seconds of simulated time
    kind: str  # one of FAILURE_KINDS
    target: str  # node id or rack id
    cause: str = "injected"
    duration: float = 0.0  # 0 = permanent (degradation kinds only)
    factor: float = 1.0  # slowdown multiplier >= 1 (degradation kinds only)

    def __post_init__(self) -> None:
        # Here, not at injection: a misspelt kind is wrong from the moment
        # the plan is written, not from the instant it would have fired.
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"unknown failure kind {self.kind!r}; choose from {', '.join(FAILURE_KINDS)}"
            )
        # Likewise a non-finite number: a NaN `at` would fire at t = 0.
        for name in ("at", "duration", "factor"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"failure {name} must be finite: {value!r}")


@dataclass
class FailurePlan:
    events: list[PlannedFailure] = field(default_factory=list)

    def sorted_events(self) -> list[PlannedFailure]:
        return sorted(self.events, key=lambda e: (e.at, e.target, e.kind))

    @property
    def burst_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "rack")

    @property
    def single_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "node")


def sample_plan(
    rng: np.random.Generator,
    dc: DataCenter,
    horizon: float,
    single_rate_per_node_year: float = 1.05,
    rack_burst_rate_per_year: float = 25.0,
) -> FailurePlan:
    """Sample a failure plan over ``horizon`` seconds of simulated time.

    Default rates follow Table I's dominant rows: ~1 independent failure
    per node-year (ooops + disk + memory) and ~25 rack-scale bursts per
    year across the cluster (rack failures + unsteadiness, scaled to the
    experiment cluster's rack count).
    """
    from repro.failures.model import SECONDS_PER_YEAR

    plan = FailurePlan()
    workers = dc.workers
    n_singles = rng.poisson(
        single_rate_per_node_year * len(workers) * horizon / SECONDS_PER_YEAR
    )
    for _ in range(int(n_singles)):
        node = workers[int(rng.integers(len(workers)))]
        plan.events.append(
            PlannedFailure(at=float(rng.uniform(0, horizon)), kind="node",
                           target=node.node_id, cause="single")
        )
    n_bursts = rng.poisson(rack_burst_rate_per_year * horizon / SECONDS_PER_YEAR)
    for _ in range(int(n_bursts)):
        rack = dc.racks[int(rng.integers(len(dc.racks)))]
        plan.events.append(
            PlannedFailure(at=float(rng.uniform(0, horizon)), kind="rack",
                           target=rack.rack_id, cause="rack-burst")
        )
    return plan


class FailureInjector:
    """Executes a :class:`FailurePlan` against a live simulation."""

    def __init__(self, env: Environment, dc: DataCenter, plan: FailurePlan):
        self.env = env
        self.dc = dc
        self.plan = plan
        self.injected: list[PlannedFailure] = []
        self.restored: list[PlannedFailure] = []

    def start(self) -> None:
        self.env.process(self._run(), label="failure-injector")

    def _run(self):
        try:
            for event in self.plan.sorted_events():
                delay = event.at - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                getattr(self, "_inject_" + event.kind)(event)
        except Interrupt:
            return

    # -- bookkeeping -------------------------------------------------------
    def _record(self, event: PlannedFailure, **data) -> None:
        self.injected.append(event)
        if self.env.trace.enabled:
            self.env.trace.emit(
                "failure.inject",
                t=self.env.now,
                subject=event.target,
                kind=event.kind,
                cause=event.cause,
                **data,
            )

    def _schedule_restore(self, event: PlannedFailure, undo) -> None:
        """Run ``undo`` after ``event.duration`` (never, if <= 0)."""
        if event.duration <= 0:
            return

        def restorer():
            try:
                yield self.env.timeout(event.duration)
            except Interrupt:
                return
            undo()
            self.restored.append(event)
            if self.env.trace.enabled:
                self.env.trace.emit(
                    "failure.restore",
                    t=self.env.now,
                    subject=event.target,
                    kind=event.kind,
                    cause=event.cause,
                )

        self.env.process(restorer(), label=f"failure-restore:{event.target}")

    # -- per-kind mechanics --------------------------------------------------
    def _inject_node(self, event: PlannedFailure) -> None:
        try:
            node = self.dc.node(event.target)
        except KeyError:
            return
        if node.alive:
            node.fail(event.cause)
            self._record(event)

    def _inject_rack(self, event: PlannedFailure) -> None:
        for rack in self.dc.racks:
            if rack.rack_id == event.target:
                victims = rack.fail_all(event.cause)
                if victims:
                    self._record(event, victims=len(victims))
                break

    def _inject_partition(self, event: PlannedFailure) -> None:
        """Slow every channel crossing the target rack's boundary.

        Only channels that exist at the injection instant participate;
        channels created later (re-wired by recovery onto spares, or a
        control link the controller binds on its first command to a
        HAU) see the healed network — the partition is a property of
        the links, not of the nodes.
        """
        factor = max(1.0, event.factor)
        affected = [
            chan
            for chan in self.dc.channels()
            if not chan.closed
            and (chan.src.rack == event.target) != (chan.dst.rack == event.target)
        ]
        if not affected:
            return
        for chan in affected:
            chan.latency *= factor
        self._record(event, channels=len(affected), factor=factor)

        def undo():
            for chan in affected:
                chan.latency /= factor

        self._schedule_restore(event, undo)

    def _inject_straggler(self, event: PlannedFailure) -> None:
        """Gray failure: the node's NIC and disk run ``factor``× slower."""
        try:
            node = self.dc.node(event.target)
        except KeyError:
            return
        if not node.alive:
            return
        factor = max(1.0, event.factor)
        node.nic_out.bandwidth /= factor
        node.disk.bandwidth /= factor
        self._record(event, factor=factor)

        def undo():
            node.nic_out.bandwidth *= factor
            node.disk.bandwidth *= factor

        self._schedule_restore(event, undo)


# A declared kind without its handler would be the silent failure above.
assert all(hasattr(FailureInjector, "_inject_" + kind) for kind in FAILURE_KINDS), FAILURE_KINDS
