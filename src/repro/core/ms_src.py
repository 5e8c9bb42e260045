"""MS-src: basic Meteor Shower (§III-A).

Round execution:

1. Every source HAU checkpoints its state synchronously and sends a
   cascade token to each downstream neighbour.
2. Every HAU checkpoints (synchronously — processing suspended) once it
   has received tokens from all upstream neighbours, then forwards the
   token.  An edge whose token has been seen is blocked; tuples arriving
   behind the token are held back ("HAU 5 then stops processing tuples
   from HAU 3 ... can still process tuples from HAU 4").
3. Source HAUs preserve all tuples generated since the MRC (handled by
   :class:`repro.core.preservation.SourcePreserver` in the base class).

The round is initiated by the controller sending a checkpoint command to
the source HAUs ("the tokens are generated by source operators or a
controller"); each source performs its checkpoint at a tuple boundary
so a token never splits a half-emitted tuple — one waiting between
tuples or finished, which the command wakes, at the command's instant;
one still emitting a tuple, when that emission completes.
"""

from __future__ import annotations

from repro.core.base import MeteorShowerBase
from repro.dsps.hau import HAURuntime
from repro.dsps.tuples import Token


class MSSrc(MeteorShowerBase):
    name = "ms-src"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending_source: dict[str, int] = {}  # hau_id -> round

    # -- round initiation ------------------------------------------------------------
    def initiate_round(self) -> None:
        round_id = self.next_round_id()
        for src in self.runtime.app.graph.sources():
            self.runtime.send_control(src, ("ckpt", round_id))

    def on_control(self, hau: HAURuntime, message) -> None:
        if isinstance(message, tuple) and message[0] == "ckpt" and hau.is_source:
            self._pending_source[hau.hau_id] = message[1]
            self.transition("checkpoint.command", hau.hau_id, round=message[1], via="control")
            hau.request_safepoint()  # a waiting or finished source checkpoints now

    # -- safe-point hook: source checkpoints happen here ------------------------------
    def maybe_checkpoint(self, hau: HAURuntime):
        round_id = self._pending_source.pop(hau.hau_id, None)
        return None if round_id is None else self._sync_checkpoint(hau, round_id)

    # -- in-band token handling ---------------------------------------------------------
    def handle_token(self, hau: HAURuntime, edge_idx: int, token: Token):
        st = self.round_state(hau.hau_id, token.round_id)
        if not st.processed:  # first token seen
            self.transition("checkpoint.command", hau.hau_id, round=token.round_id, via="token")
        hau.block_edge(edge_idx)
        st.processed.add(edge_idx)
        if len(st.processed) == len(hau.in_edges):
            self.transition(
                "checkpoint.tokens.done", hau.hau_id,
                round=token.round_id, edges=len(st.processed),
            )
            bd = yield from self._sync_checkpoint(hau, token.round_id)
            yield from hau.release_holdback(bd)

    def on_recovery_reset(self) -> None:
        super().on_recovery_reset()
        self._pending_source.clear()

    # -- the synchronous individual checkpoint ---------------------------------------------
    def _sync_checkpoint(self, hau: HAURuntime, round_id: int):
        """Suspend, serialise, write, forward token, resume; returns the
        checkpoint's breakdown.

        Runs inside the HAU's own loop, so normal stream processing is
        suspended for the whole duration — the baseline/-src disruption
        the paper measures as instantaneous latency (Fig. 15).
        """
        st = self.round_state(hau.hau_id, round_id)
        st.snapshot_done = True
        if not st.processed:
            # Sources have no upstream tokens: collection completes at the
            # safe point where their synchronous checkpoint begins.
            self.transition("checkpoint.tokens.done", hau.hau_id, round=round_id, edges=0)
        bd = self.transition(
            "checkpoint.start", hau.hau_id, round=round_id, mode="sync", scheme=self.name
        )
        hau.pause_intake()
        try:
            payload = hau.build_checkpoint_payload(round_id)
            yield from self.write_checkpoint(hau, payload)
            yield from hau.emit_token(
                Token(round_id=round_id, origin=hau.hau_id, kind="cascade")
            )
        finally:
            hau.resume_intake()
        return bd
