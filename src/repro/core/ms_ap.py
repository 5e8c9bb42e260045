"""MS-src+ap: parallel, asynchronous Meteor Shower (§III-B).

Parallel: the controller broadcasts a token command to *every* HAU at
once.  Each HAU immediately inserts a 1-hop token at the head of each
output queue and then waits for 1-hop tokens from its upstream
neighbours; tokens are discarded after the individual checkpoint starts
(never forwarded).

Asynchronous: when tokens have arrived on all input edges, the HAU forks
a child process (copy-on-write) at the next tuple boundary; the parent
resumes immediately while the child serialises and writes the state —
contending for the node's NIC and the storage node's disk, but off the
critical path.  While a child is live the parent pays a small COW tax on
processing.

Saved with the state: all tuples "between the incoming tokens and the
output tokens" — the output-queue content at command time (which the
head-inserted token jumped over), every tuple emitted between command
and fork, and the received-but-unprocessed pre-token input backlog.
"""

from __future__ import annotations


from repro.core.base import MeteorShowerBase, RoundState
from repro.core.delta import DeltaPolicy, DeltaTracker
from repro.dsps.graph import EdgeSpec
from repro.dsps.hau import HAURuntime
from repro.dsps.tuples import DataTuple, Token
from repro.simulation.core import Interrupt


class MSSrcAP(MeteorShowerBase):
    name = "ms-src+ap"

    def __init__(self, *args, delta: DeltaPolicy | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._cow_active: dict[str, int] = {}  # hau_id -> live child count
        self.delta = DeltaTracker(delta) if delta is not None else None

    # -- round initiation -----------------------------------------------------------
    def initiate_round(self) -> None:
        round_id = self.next_round_id()
        self.runtime.broadcast_control(("token_cmd", round_id))

    def on_control(self, hau: HAURuntime, message) -> None:
        if not (isinstance(message, tuple) and message[0] == "token_cmd"):
            return
        round_id = message[1]
        st = self.round_state(hau.hau_id, round_id)
        self.transition("checkpoint.command", hau.hau_id, round=round_id, via="control")
        # Tuples already queued in the output buffers become post-token
        # once the 1-hop token is inserted at the head: save copies.
        st.out_copies = hau.outbox_tuples()
        st.recording = True
        hau.emit_token_front(Token(round_id=round_id, origin=hau.hau_id, kind="one_hop"))
        if not hau.in_edges:
            # Sources (no upstream neighbours) are immediately ready.
            st.ready = True
            self.transition("checkpoint.tokens.done", hau.hau_id, round=round_id, edges=0)
            hau.request_safepoint()  # a waiting or finished source forks now

    # -- token plumbing -------------------------------------------------------------------
    def on_token_arrival(self, hau: HAURuntime, edge_idx: int, token: Token) -> None:
        st = self.round_state(hau.hau_id, token.round_id)
        st.arrivals.add(edge_idx)
        if len(st.arrivals) == len(hau.in_edges) and not st.ready:
            st.ready = True
            self.transition(
                "checkpoint.tokens.done", hau.hau_id,
                round=token.round_id, edges=len(st.arrivals),
            )

    def handle_token(self, hau: HAURuntime, edge_idx: int, token: Token):
        """Popped from the inbox: erase; block the edge until the snapshot."""
        st = self.round_state(hau.hau_id, token.round_id)
        st.processed.add(edge_idx)
        if not st.snapshot_done:
            hau.block_edge(edge_idx)
            if st.ready:
                yield from self._begin_async_checkpoint(hau, st)

    def on_emit(self, hau: HAURuntime, edge: EdgeSpec, tup: DataTuple):
        st = self.active_state(hau.hau_id)
        if st is not None and st.recording:
            st.out_copies.append((edge.edge_id, tup))
        return None  # bookkeeping only: no simulated time

    def maybe_checkpoint(self, hau: HAURuntime):
        st = self.active_state(hau.hau_id)
        if st is not None and st.ready and not st.snapshot_done:
            return self._begin_async_checkpoint(hau, st)
        return None

    # -- the asynchronous individual checkpoint ------------------------------------------------
    def _begin_async_checkpoint(self, hau: HAURuntime, st: RoundState):
        """Fork (brief pause), snapshot, hand off to a background writer."""
        env = self.runtime.env
        st.snapshot_done = True
        st.recording = False
        bd = self.transition(
            "checkpoint.start", hau.hau_id,
            round=st.round_id, mode="async", scheme=self.name, saved_out=len(st.out_copies),
        )
        # fork(): the parent is blocked while the child's page tables are set
        # up; the memory image is frozen (copy-on-write) at this instant.
        fork = self.costs.fork_time(hau.state_size())
        bd.fork_seconds = fork
        yield env.timeout(fork)
        payload = hau.build_checkpoint_payload(st.round_id, extra_out=st.out_copies)
        self._cow_active[hau.hau_id] = self._cow_active.get(hau.hau_id, 0) + 1
        hau.node.spawn(
            self._child_writer(hau, payload), label=f"{hau.hau_id}.ckpt{st.round_id}"
        )
        # Tokens in the input buffers "are erased immediately" and held-back
        # tuples flow again; the parent has returned to normal execution.
        yield from hau.release_holdback(bd)

    def _child_writer(self, hau: HAURuntime, payload: dict):
        """The forked child: serialise and save state off the critical path."""
        try:
            billed = payload["state_size"]
            is_full = True
            if self.delta is not None:
                billed, is_full = self.delta.billed_size(
                    hau.hau_id, payload["state_size"]
                )
            version = yield from self.write_checkpoint(hau, payload, billed_size=billed)
            if self.delta is not None:
                self.delta.record(
                    hau.hau_id, payload["round_id"], version,
                    payload["state_size"], billed, is_full,
                )
        except Interrupt:
            return
        finally:
            self._cow_active[hau.hau_id] = max(0, self._cow_active.get(hau.hau_id, 1) - 1)

    def processing_overhead(self, hau: HAURuntime) -> float:
        return self.costs.cow_tax if self._cow_active.get(hau.hau_id, 0) > 0 else 0.0

    def on_recovery_reset(self) -> None:
        super().on_recovery_reset()
        self._cow_active.clear()
        if self.delta is not None:
            self.delta.restart_chains()

    # -- delta-checkpointing hooks (repro.core.delta) --------------------------------
    def recovery_read_plan(self, hau_id: str, cut_round: int, cut_version: int) -> list[int]:
        if self.delta is not None:
            chain = self.delta.read_chain(hau_id, through_round=cut_round)
            versions = [v for (_r, v, _b) in chain]
            if versions and versions[-1] == cut_version:
                return versions
        return [cut_version]

    def oldest_kept_version(self, hau_id: str, version: int) -> int | None:
        if self.delta is None:
            return version
        # keep every version in the HAU's live chain (the full checkpoint
        # plus its deltas); everything older is superseded
        protected = self.delta.protected_versions(hau_id)
        return min(protected) if protected else None


class OracleScheme(MSSrcAP):
    """MS-src+ap checkpointing exactly at the true state-size minima.

    The paper's Oracle: "the checkpoint is performed exactly at the moment
    of the minimal state ... obtained from observing prior runs".  The
    harness measures a prior run and computes the per-period minima
    instants (``find_oracle_times``); :meth:`from_config` checkpoints at
    ``cfg.oracle_times``, or at the evenly spaced instants without them.
    """

    name = "oracle"

    @classmethod
    def from_config(cls, cfg) -> OracleScheme:
        return cls(
            checkpoint_times=list(cfg.oracle_times or cfg.checkpoint_times()),
            costs=cfg.costs,
            enable_recovery=cfg.enable_recovery,
        )
