"""Delta-checkpointing extension (paper §V, related work).

"Cooperative HA Solution [4] ... also experiments with delta-
checkpointing (saving only the changed part of the state) to reduce the
state size.  We believe that distributed checkpointing and delta-
checkpointing complement Meteor Shower's application-aware
checkpointing and could be applied jointly."

This module implements that composition for the asynchronous variants:
between periodic *full* checkpoints, a round ships only the state grown
since the previous round (the dominant state of all three paper
applications is append-shaped: pools, retained frames, histories).  A
shrink (batch flush, bus arrival, vehicle departure) rewrites from
scratch — which is exactly when the state is smallest, so the rewrite is
cheap.

The trade-off it buys and the one it costs:

* common case: less data serialised and shipped per round;
* recovery: the restart must read the whole chain — the last full
  checkpoint plus every delta after it — so worst-case recovery reads
  more than one object (bench A4 quantifies both sides).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DeltaPolicy:
    """Controls delta-checkpointing for a Meteor Shower scheme.

    ``full_every`` — every k-th round per HAU is a full checkpoint
    (k=1 disables deltas in effect).  ``min_delta_bytes`` — a floor for
    billed delta size (metadata, dirty-page table).
    """

    full_every: int = 4
    min_delta_bytes: int = 4096

    def __post_init__(self):
        if self.full_every < 1:
            raise ValueError("full_every must be >= 1")


@dataclass
class _HauDeltaState:
    rounds_since_full: int = -1  # -1: never checkpointed
    last_size: int = 0
    #: versions forming the current chain: [(round_id, version, billed)]
    chain: list[tuple[int, int, int]] = field(default_factory=list)


class DeltaTracker:
    """Per-HAU bookkeeping shared by the delta-enabled schemes."""

    def __init__(self, policy: DeltaPolicy):
        self.policy = policy
        self._hau: dict[str, _HauDeltaState] = {}

    def _state(self, hau_id: str) -> _HauDeltaState:
        st = self._hau.get(hau_id)
        if st is None:
            st = _HauDeltaState()
            self._hau[hau_id] = st
        return st

    def billed_size(self, hau_id: str, full_size: int) -> tuple[int, bool]:
        """(bytes to ship for this round, is_full).

        A round is full when the cadence says so, when the state shrank
        (append-structure reset: rewrite the now-small state), or when no
        checkpoint exists yet.
        """
        st = self._state(hau_id)
        due_full = (
            st.rounds_since_full < 0
            or (st.rounds_since_full + 1) >= self.policy.full_every
        )
        shrunk = full_size < st.last_size
        if due_full or shrunk:
            return max(full_size, 1), True
        delta = max(full_size - st.last_size, self.policy.min_delta_bytes)
        return delta, False

    def record(self, hau_id: str, round_id: int, version: int,
               full_size: int, billed: int, is_full: bool) -> None:
        st = self._state(hau_id)
        if is_full:
            st.chain = [(round_id, version, billed)]
            st.rounds_since_full = 0
        else:
            st.chain.append((round_id, version, billed))
            st.rounds_since_full += 1
        st.last_size = full_size

    def restart_chains(self) -> None:
        """Every HAU's state was rolled back: its next round is a full
        checkpoint (chains written before the failure may carry rounds the
        rollback discarded)."""
        for st in self._hau.values():
            st.rounds_since_full = -1

    def read_chain(self, hau_id: str, through_round: int) -> list[tuple[int, int, int]]:
        """The (round, version, billed) objects a recovery must read to
        reconstruct the state as of ``through_round``."""
        st = self._hau.get(hau_id)
        if st is None:
            return []
        return [c for c in st.chain if c[0] <= through_round]

    def protected_versions(self, hau_id: str) -> set[int]:
        """Versions the garbage collector must keep (the live chain)."""
        st = self._hau.get(hau_id)
        return {v for (_r, v, _b) in st.chain} if st else set()

    def chain_read_bytes(self, hau_id: str, through_round: int) -> int:
        return sum(b for (_r, _v, b) in self.read_chain(hau_id, through_round))
