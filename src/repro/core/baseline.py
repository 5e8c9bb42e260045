"""The baseline: state-of-the-art checkpoint scheme circa 2012 (§II-B3).

"HAUs perform checkpoints independently.  Each HAU selects randomly the
time for its first checkpoint.  After that, each HAU checkpoints its
state periodically. ... Using input preservation, each HAU preserves
output tuples in an in-memory buffer [50 MB, spilling to local disk].
The checkpointed state is saved on a shared storage node.  An HAU sends
a message back to its upstream neighbors once it completes a checkpoint
[discarding acknowledged tuples]. ... HAUs perform checkpoints
synchronously."

Recovery is per-HAU (1-safe): the failed HAU restarts from its own MRC
on a spare node, upstream neighbours replay the retained tuples beyond
the acknowledged sequence, and per-edge sequence numbers suppress
duplicates downstream.  Correlated failures that also take out an
upstream neighbour lose the retained buffer — the data-loss mode that
motivates Meteor Shower (reported, not hidden).
"""

from __future__ import annotations


from repro.core.costs import CostModel
from repro.core.preservation import InputPreserver
from repro.core.recovery import failure_watcher
from repro.dsps.graph import EdgeSpec
from repro.dsps.hau import HAURuntime
from repro.dsps.runtime import CKPT_NS, CheckpointScheme
from repro.dsps.tuples import DataTuple
from repro.simulation.core import Interrupt
from repro.storage.local import DEFAULT_BUFFER_BYTES
from repro.storage.shared import StorageClient


class BaselineScheme(CheckpointScheme):
    name = "baseline"

    def __init__(
        self,
        checkpoint_period: float | None = None,
        costs: CostModel | None = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        enable_recovery: bool = False,
        start_after: float = 0.0,
    ):
        super().__init__()
        self.checkpoint_period = checkpoint_period
        self.costs = costs or CostModel()
        self.preserver = InputPreserver(buffer_bytes=buffer_bytes)
        self.enable_recovery = enable_recovery
        self.start_after = start_after
        self._pending: dict[str, int] = {}  # hau_id -> local round counter
        # upstream_hau_id -> [(edge, new_channel, after_seq)]: replay jobs
        # executed at the upstream's own tuple boundary, so the replayed
        # tuples enter the new channel strictly before any new emission.
        self._pending_replays: dict[str, list] = {}
        self.checkpoint_versions: dict[str, int] = {}  # hau -> latest version

    @classmethod
    def from_config(cls, cfg) -> BaselineScheme:
        return cls(
            checkpoint_period=cfg.window / cfg.n_checkpoints if cfg.n_checkpoints else None,
            costs=cfg.costs,
            enable_recovery=cfg.enable_recovery,
            start_after=cfg.warmup,
        )

    @property
    def recovered(self) -> list[tuple[float, str]]:
        """(time, HAU) of every completed 1-safe restart."""
        return self.record.recovered

    @property
    def unrecoverable(self) -> list[tuple[float, str]]:
        """(time, HAU) of every restart given up: retained tuples lost."""
        return self.record.unrecoverable

    # -- lifecycle -------------------------------------------------------------------
    def start(self) -> None:
        rt = self.runtime
        if self.checkpoint_period:
            for hau_id in sorted(rt.haus):
                rt.haus[hau_id].node.spawn(
                    self._timer(hau_id), label=f"baseline.timer.{hau_id}"
                )
        if self.enable_recovery:
            rt.dc.storage_node.spawn(failure_watcher(self), label=f"{self.name}.watch")

    def _timer(self, hau_id: str):
        """Random first phase, then strictly periodic requests."""
        env = self.runtime.env
        rng = self.runtime.rngs.stream(f"baseline.phase.{hau_id}")
        try:
            first = self.start_after + float(rng.uniform(0.0, self.checkpoint_period))
            yield env.timeout(max(0.0, first - env.now))
            counter = 0
            while True:
                counter += 1
                self._pending[hau_id] = counter
                hau = self.runtime.haus.get(hau_id)
                if hau is not None:
                    hau.request_safepoint()
                yield env.timeout(self.checkpoint_period)
        except Interrupt:
            return

    # -- hooks --------------------------------------------------------------------------
    def on_emit(self, hau: HAURuntime, edge: EdgeSpec, tup: DataTuple):
        """Input preservation: copy the tuple into the retention buffer,
        spilling to the local disk when the 50 MB buffer fills."""
        cost = self.costs.memcpy_time(tup.size)
        if cost > 0:
            yield self.runtime.env.timeout(cost)
        yield from self.preserver.retain(hau, edge.edge_id, tup)

    def processing_overhead(self, hau: HAURuntime) -> float:
        """The standing cost of input preservation on the processing path.

        Every non-sink HAU serialises, buffers and bookkeeps each tuple's
        outputs; calibrated as a fraction of processing cost (see
        CostModel.input_preservation_factor and EXPERIMENTS.md)."""
        return 0.0 if hau.is_sink else self.costs.input_preservation_factor

    def maybe_checkpoint(self, hau: HAURuntime):
        # Replay jobs first: performed inside the upstream's own loop so no
        # new emission can overtake the replayed (lower-seq) tuples.
        jobs = self._pending_replays.pop(hau.hau_id, None)
        if jobs:
            return self._replay_then_checkpoint(hau, jobs)
        counter = self._pending.pop(hau.hau_id, None)
        return None if counter is None else self._sync_checkpoint(hau, counter)

    def _replay_then_checkpoint(self, hau: HAURuntime, jobs: list):
        for edge, chan, after_seq in jobs:
            tuples = yield from self.preserver.replay(hau.hau_id, edge.edge_id, after_seq)
            for tup in tuples:
                yield chan.send(tup, size=tup.size)
            hau.attach_out_channel(edge, chan)
        # a checkpoint requested while the replay ran is taken here too
        counter = self._pending.pop(hau.hau_id, None)
        if counter is not None:
            yield from self._sync_checkpoint(hau, counter)

    # -- the synchronous independent checkpoint ------------------------------------------------
    def _sync_checkpoint(self, hau: HAURuntime, counter: int):
        """No tokens to collect: the HAUs share a counter, not a round
        (``self.record.logs[counter]`` groups their counter-th checkpoints)."""
        env = self.runtime.env
        bd = self.transition(
            "checkpoint.start", hau.hau_id, round=counter, mode="sync", scheme=self.name
        )
        hau.pause_intake()
        try:
            payload = hau.build_checkpoint_payload(counter, include_backlog=False)
            ser = self.costs.serialize_time(payload["state_size"])
            bd.serialize_seconds = ser
            if ser > 0:
                yield env.timeout(ser)
            version = yield from self.write_checkpoint(hau, payload)
            self.checkpoint_versions[hau.hau_id] = version
            # GC our own superseded checkpoints, then ack upstream: the
            # retained tuples we have checkpointed past can be discarded.
            self.runtime.storage.drop_versions_before(CKPT_NS, hau.hau_id, version)
            self._ack_upstream(hau, payload["in_seq"])
        finally:
            hau.resume_intake()

    def _ack_upstream(self, hau: HAURuntime, in_seq: dict[int, int]) -> None:
        for edge_idx, edge in enumerate(hau.in_edges):
            seq = in_seq.get(edge_idx, 0)
            if seq:
                self.preserver.ack(edge.src, seq)

    # -- recovery (1-safe) -----------------------------------------------------------------
    def recover(self, dead: list[str]):
        """Classify the whole sweep first — a victim whose upstream is also
        in it has lost that upstream's retained buffer no matter the
        recovery order — then restart the others one by one."""
        dead_set = set(dead)
        recoverable = []
        for hau_id in dead:
            if any(u in dead_set for u in self.runtime.app.graph.upstream(hau_id)):
                self.transition("baseline.unrecoverable", hau_id, cause="upstream-dead")
            else:
                recoverable.append(hau_id)
        for hau_id in recoverable:
            yield from self._recover_single(hau_id)

    def _recover_single(self, hau_id: str):
        """Restart one failed HAU from its MRC; upstreams replay.

        If an upstream neighbour's retained buffer is gone — the neighbour
        is dead, or it died and was itself restarted with an empty buffer
        (correlated failure) — the tuples are unrecoverable and the event
        is recorded.  This is the baseline's 1-safety limit.
        """
        rt = self.runtime
        env = rt.env
        graph = rt.app.graph
        self.transition("baseline.recover.start", hau_id)
        for up in graph.upstream(hau_id):
            if not rt.haus[up].node.alive or self.preserver.buffer_lost(up):
                self.transition(
                    "baseline.unrecoverable", hau_id, cause="retained-buffer-lost"
                )
                return
        spare = rt.dc.claim_spare()
        yield env.timeout(self.costs.reload_seconds)
        payload = None
        version = self.checkpoint_versions.get(hau_id)
        if version is not None:
            client = StorageClient(spare, rt.storage)
            obj = yield from client.read(CKPT_NS, hau_id, version=version, bulk=True)
            payload = obj.value
            yield env.timeout(self.costs.deserialize_time(obj.size))
        restored_in_seq = dict(payload.get("in_seq", {})) if payload else {}
        hau, deferred = rt.rebuild_single_hau(
            hau_id, spare, payload, attach_upstream=False
        )
        yield env.timeout(self.costs.reconnect_per_hau)
        hau.start()
        # Queue the upstream replays: each upstream re-sends its retained
        # tuples into the fresh channel at its next tuple boundary, then
        # attaches the channel for live traffic.
        for edge, chan in deferred:
            edge_idx = graph.in_edge_index(edge)
            after = restored_in_seq.get(edge_idx, 0)
            self._pending_replays.setdefault(edge.src, []).append((edge, chan, after))
            up = rt.haus.get(edge.src)
            if up is not None:
                up.request_safepoint()
        self.transition(
            "baseline.recover.done", hau_id, node=spare.node_id, replay_edges=len(deferred)
        )
