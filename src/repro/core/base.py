"""Shared machinery of the Meteor Shower variants.

All MS variants share: source preservation, versioned checkpoint storage
keyed by (HAU, round), application-checkpoint completion tracking with
garbage collection of superseded rounds, controller-side failure
detection, and global-rollback recovery.  Variants differ only in *how*
a round is executed (token cascade vs broadcast; sync vs async) and
*when* rounds start (fixed schedule vs application-aware timing).
"""

from __future__ import annotations

from abc import ABCMeta, abstractmethod
from dataclasses import dataclass, field

from repro.core.costs import CostModel
from repro.core.preservation import SourcePreserver
from repro.core.recovery import GlobalRecovery, emitted_count, failure_watcher
from repro.dsps.hau import HAURuntime
from repro.dsps.runtime import CKPT_NS, CheckpointScheme
from repro.dsps.tuples import DataTuple
from repro.metrics.breakdown import CheckpointLog
from repro.simulation.core import Interrupt


@dataclass
class RoundState:
    """Per-HAU bookkeeping for one checkpoint round."""

    round_id: int
    arrivals: set = field(default_factory=set)  # edge idx with token arrived
    processed: set = field(default_factory=set)  # edge idx with token popped
    ready: bool = False  # all tokens arrived
    snapshot_done: bool = False
    recording: bool = False
    out_copies: list = field(default_factory=list)  # (edge_id, DataTuple)


class MeteorShowerBase(CheckpointScheme, metaclass=ABCMeta):
    """Base for MS-src, MS-src+ap and MS-src+ap+aa.

    Abstract: a variant that implements no ``initiate_round`` can be
    defined (as an intermediate class) but not instantiated."""

    name = "ms-base"

    def __init__(
        self,
        checkpoint_times: list[float] | None = None,
        costs: CostModel | None = None,
        enable_recovery: bool = False,
    ):
        super().__init__()
        self.checkpoint_times = sorted(checkpoint_times or [])
        self.costs = costs or CostModel()
        self.enable_recovery = enable_recovery
        self.preserver: SourcePreserver | None = None
        self.rounds: dict[tuple[str, int], RoundState] = {}
        # Per-HAU view of self.rounds (same RoundState objects): active_state
        # runs once per tuple on the hot path, and scanning every
        # (hau, round) pair there was ~5% of sweep wall-clock.
        self._hau_rounds: dict[str, list[RoundState]] = {}
        self.recovery: GlobalRecovery | None = None

    @classmethod
    def from_config(cls, cfg) -> MeteorShowerBase:
        return cls(
            checkpoint_times=cfg.checkpoint_times(),
            costs=cfg.costs,
            enable_recovery=cfg.enable_recovery,
        )

    # -- lifecycle ------------------------------------------------------------------
    def attach(self, runtime) -> None:
        super().attach(runtime)
        self.preserver = SourcePreserver(runtime.storage)
        self.recovery = GlobalRecovery(self, runtime, self.costs)

    def start(self) -> None:
        rt = self.runtime
        if self.checkpoint_times:
            rt.dc.storage_node.spawn(self._coordinator(), label=f"{self.name}.coord")
        if self.enable_recovery:
            rt.dc.storage_node.spawn(failure_watcher(self), label=f"{self.name}.watch")

    def _coordinator(self):
        """Fire one checkpoint round at each scheduled instant."""
        try:
            for when in self.checkpoint_times:
                delay = when - self.runtime.env.now
                if delay > 0:
                    yield self.runtime.env.timeout(delay)
                self.initiate_round()
        except Interrupt:
            return

    @abstractmethod
    def initiate_round(self) -> None:
        """Start one application checkpoint; scheme-specific."""

    def next_round_id(self) -> int:
        round_id = len(self.logs) + 1
        self.transition("checkpoint.round.start", self.name, round=round_id)
        return round_id

    # -- round state ----------------------------------------------------------------
    def round_state(self, hau_id: str, round_id: int) -> RoundState:
        st = self.rounds.get((hau_id, round_id))
        if st is None:
            st = RoundState(round_id=round_id)
            self.rounds[(hau_id, round_id)] = st
            self._hau_rounds.setdefault(hau_id, []).append(st)
        return st

    def active_state(self, hau_id: str) -> RoundState | None:
        """The HAU's most recent round that has not yet snapshotted."""
        best = None
        for st in self._hau_rounds.get(hau_id, ()):
            if not st.snapshot_done and (best is None or st.round_id > best.round_id):
                best = st
        return best

    # -- source preservation -------------------------------------------------------
    def on_source_emit(self, hau: HAURuntime, tup: DataTuple):
        return self.preserver.preserve(hau, tup)

    # -- checkpoint write -------------------------------------------------------------
    def write_checkpoint(self, hau: HAURuntime, payload: dict, billed_size: int | None = None):
        """The commit that completes a round completes the application
        checkpoint: report it and collect what it supersedes."""
        version = yield from super().write_checkpoint(hau, payload, billed_size)
        log = self.logs[payload["round_id"]]
        if log.committed():
            if not log.complete:
                self.transition(
                    "checkpoint.round.complete", self.name,
                    round=log.round_id, haus=len(log.expected_haus),
                )
            self._garbage_collect(log)
        return version

    def recovery_read_plan(self, hau_id: str, cut_round: int, cut_version: int) -> list[int]:
        """Storage versions a recovery must read for this HAU, in order.

        Plain checkpointing reads exactly the cut version; delta-enabled
        schemes override this with the full-plus-deltas chain."""
        return [cut_version]

    def oldest_kept_version(self, hau_id: str, version: int) -> int | None:
        """The oldest checkpoint version of ``hau_id`` the garbage collector
        keeps once ``version`` is in a complete round (None: keep all)."""
        return version

    def _garbage_collect(self, log: CheckpointLog) -> None:
        """Drop checkpoint versions and preserved tuples superseded by the
        newly completed application checkpoint ``log``."""
        storage = self.runtime.storage
        for src in self.runtime.app.graph.sources():
            payload = storage.lookup(CKPT_NS, src, log.haus[src].version).value
            self.preserver.discard_through(src, emitted_count(payload))
        for hau_id, bd in log.haus.items():
            oldest = self.oldest_kept_version(hau_id, bd.version)
            if oldest is not None:
                storage.drop_versions_before(CKPT_NS, hau_id, oldest)

    # -- recovery ------------------------------------------------------------------------
    def recover(self, dead: list[str]):
        """Global rollback of the whole application to the MRC."""
        yield from self.recovery.run(dead)

    def on_recovery_reset(self) -> None:
        """Drop transient per-round state at the rollback instant.

        A round that was in flight when the failure hit can never complete
        (its tokens died with the channels); its RoundStates must not leak
        into the restarted application.
        """
        for round_id, log in self.logs.items():
            if not log.complete and log.abandoned_at is None:
                self.transition("checkpoint.abandon", self.name, round=round_id, cause="rollback")
        logs = self.logs
        self.rounds = {
            (hid, rid): st
            for (hid, rid), st in self.rounds.items()
            if (bd := logs[rid].haus.get(hid)) is not None and bd.complete
        }
        self._hau_rounds = {}
        for (hid, _rid), st in self.rounds.items():
            self._hau_rounds.setdefault(hid, []).append(st)

    # -- reporting ---------------------------------------------------------------------
    @property
    def logs(self) -> dict[int, CheckpointLog]:
        return self.record.logs

    def checkpoint_logs(self) -> list[CheckpointLog]:
        return [self.logs[r] for r in sorted(self.logs)]

