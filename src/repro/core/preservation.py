"""Tuple preservation: the paper's two retention disciplines.

*Source preservation* (§III-A, all Meteor Shower variants): only source
HAUs retain output tuples, saving them to stable (shared) storage
*before* sending — "which guarantees that the preserved tuples are still
accessible even if the source HAU fails".

*Input preservation* (baseline, [1]): every HAU retains every output
tuple in a bounded memory buffer that spills to local disk; downstream
checkpoint acknowledgements discard the retained prefix.  For a chain of
n operators every tuple is saved n-1 times — the overhead Meteor Shower
eliminates.
"""

from __future__ import annotations


from repro.cluster.node import Node
from repro.dsps.hau import HAURuntime
from repro.dsps.tuples import DataTuple
from repro.storage.local import DEFAULT_BUFFER_BYTES, LocalStore
from repro.storage.shared import SharedStorage, StorageClient

PRESERVE_NS = "preserve"


class SourcePreserver:
    """Stable-storage retention of source output (per source HAU)."""

    def __init__(self, storage: SharedStorage):
        self.storage = storage
        self.tuples_preserved = 0
        self.bytes_preserved = 0

    def preserve(self, hau: HAURuntime, tup: DataTuple):
        """Process generator: write ``tup`` to stable storage before send."""
        client = StorageClient(hau.node, self.storage)
        yield from client.write(PRESERVE_NS, hau.hau_id, tup, size=tup.size)
        self.tuples_preserved += 1
        self.bytes_preserved += tup.size

    def replay_tuples(self, hau_id: str, after_seq: int) -> list[DataTuple]:
        """Preserved tuples with seq > ``after_seq``, in order (metadata)."""
        out: list[DataTuple] = []
        versions = self.storage._objects.get((PRESERVE_NS, hau_id), [])
        for obj in versions:
            tup = obj.value
            if isinstance(tup, DataTuple) and tup.seq > after_seq:
                out.append(tup)
        return sorted(out, key=lambda t: t.seq)

    def replay_bytes(self, hau_id: str, after_seq: int) -> int:
        return sum(t.size for t in self.replay_tuples(hau_id, after_seq))

    def retained_bytes(self, hau_id: str) -> int:
        """Bytes of the HAU's preserved tuples on shared storage."""
        return sum(obj.size for obj in self.storage._objects.get((PRESERVE_NS, hau_id), ()))

    def discard_through(self, hau_id: str, seq: int) -> None:
        """Garbage-collect preserved tuples covered by a completed round."""
        pair = (PRESERVE_NS, hau_id)
        versions = self.storage._objects.get(pair)
        if versions:
            self.storage._objects[pair] = [
                o
                for o in versions
                if not (isinstance(o.value, DataTuple) and o.value.seq <= seq)
            ]


class InputPreserver:
    """Per-HAU bounded-buffer output retention (baseline discipline)."""

    def __init__(self, buffer_bytes: int = DEFAULT_BUFFER_BYTES):
        self.buffer_bytes = buffer_bytes
        self._stores: dict[str, LocalStore] = {}
        self._nodes: dict[str, Node] = {}

    def store_for(self, hau: HAURuntime) -> LocalStore:
        """The HAU's retention store (recreated if the HAU moved nodes)."""
        store = self._stores.get(hau.hau_id)
        if store is None or self._nodes.get(hau.hau_id) is not hau.node:
            store = LocalStore(hau.node, buffer_bytes=self.buffer_bytes)
            self._stores[hau.hau_id] = store
            self._nodes[hau.hau_id] = hau.node
        return store

    def retain(self, hau: HAURuntime, edge_id: str, tup: DataTuple):
        """Process generator: retain an emitted tuple (may spill to disk)."""
        store = self.store_for(hau)
        yield from store.append(tup.seq, (edge_id, tup), tup.size)

    def ack(self, upstream_hau_id: str, seq: int) -> int:
        """Downstream checkpoint ack: discard retained tuples <= seq."""
        store = self._stores.get(upstream_hau_id)
        if store is None:
            return 0
        return store.discard_through(seq)

    def replay(self, upstream_hau_id: str, edge_id: str, after_seq: int):
        """Process generator returning retained tuples for one edge."""
        store = self._stores.get(upstream_hau_id)
        if store is None:
            return []
        items = yield from store.replay_after(after_seq)
        return [tup for (_s, (eid, tup), _z) in items if eid == edge_id]

    def retained_bytes(self, hau_id: str) -> int:
        """Bytes in the HAU's retention buffer, memory plus spilled disk."""
        store = self._stores.get(hau_id)
        return 0 if store is None else store.mem_bytes + store.disk_bytes

    def total_retained_bytes(self) -> int:
        return sum(self.retained_bytes(hau_id) for hau_id in self._stores)

    def buffer_lost(self, hau_id: str) -> bool:
        """True when the node holding the HAU's retention buffer died."""
        store = self._stores.get(hau_id)
        return store is not None and not store.node.alive
