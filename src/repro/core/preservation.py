"""Tuple preservation: the paper's two retention disciplines.

*Source preservation* (§III-A, all Meteor Shower variants): only source
HAUs retain output tuples, saving them to stable (shared) storage
*before* sending — "which guarantees that the preserved tuples are still
accessible even if the source HAU fails".

*Input preservation* (baseline, [1]): every HAU retains every output
tuple in a bounded memory buffer that spills to local disk; a downstream
checkpoint acknowledgement discards its own edge's retained prefix.  A
node failure loses the buffer — why the baseline cannot survive a
correlated failure of a HAU and its upstream.  For a chain of
n operators every tuple is saved n-1 times — the overhead Meteor Shower
eliminates.
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.dsps.hau import HAURuntime
from repro.dsps.tuples import DataTuple
from repro.storage.shared import SharedStorage, StorageClient

PRESERVE_NS = "preserve"
DEFAULT_BUFFER_BYTES = 50 * 1024 * 1024  # 50 MB per HAU, per the paper (§II-B3)


class SourcePreserver:
    """Stable-storage retention of source output (per source HAU)."""

    def __init__(self, storage: SharedStorage):
        self.storage = storage

    def preserve(self, hau: HAURuntime, tup: DataTuple):
        """Process generator: write ``tup`` to stable storage before send."""
        client = StorageClient(hau.node, self.storage)
        yield from client.write(PRESERVE_NS, hau.hau_id, tup, size=tup.size)

    def replay_tuples(self, hau_id: str, after_seq: int) -> list[DataTuple]:
        """Preserved tuples with seq > ``after_seq``, in order (metadata)."""
        out: list[DataTuple] = []
        versions = self.storage._objects.get((PRESERVE_NS, hau_id), [])
        for obj in versions:
            tup = obj.value
            if isinstance(tup, DataTuple) and tup.seq > after_seq:
                out.append(tup)
        return sorted(out, key=lambda t: t.seq)

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


class Retention:
    """One upstream HAU's retained output on its node: the memory buffer
    and the entries full buffers dumped to the local disk, each entry an
    ``(edge_id, tup)`` pair, with their byte counts."""

    __slots__ = ("node", "mem", "mem_bytes", "disk", "disk_bytes")

    def __init__(self, node: Node):
        self.node = node
        self.mem: list[tuple[str, DataTuple]] = []
        self.mem_bytes = 0
        self.disk: list[tuple[str, DataTuple]] = []
        self.disk_bytes = 0


def _drop_through(entries: list, edge_id: str, seq: int) -> tuple[list, int]:
    """``entries`` less ``edge_id``'s through sequence ``seq``, and the
    bytes dropped."""
    kept, freed = [], 0
    for entry in entries:
        if entry[0] == edge_id and entry[1].seq <= seq:
            freed += entry[1].size
        else:
            kept.append(entry)
    return kept, freed


class InputPreserver:
    """Per-HAU bounded-buffer output retention (baseline discipline).

    Each HAU's out-edges share one ``buffer_bytes`` memory buffer; a full
    buffer is dumped whole to the local disk (one sequential write), and
    a HAU restarted on another node starts with an empty one.  The node's
    failure loses both — the baseline's 1-safety limit.
    """

    def __init__(self, buffer_bytes: int = DEFAULT_BUFFER_BYTES):
        self.buffer_bytes = int(buffer_bytes)
        self._held: dict[str, Retention] = {}

    def retain(self, hau: HAURuntime, edge_id: str, tup: DataTuple):
        """Process generator: retain an emitted tuple (may spill to disk)."""
        held = self._held.get(hau.hau_id)
        if held is None or held.node is not hau.node:
            held = self._held[hau.hau_id] = Retention(hau.node)
        held.node.check_alive()
        if held.mem and held.mem_bytes + tup.size > self.buffer_bytes:
            yield from held.node.disk.transfer(held.mem_bytes)
            # what an ack freed during the write is not on the disk
            held.disk.extend(held.mem)
            held.disk_bytes += held.mem_bytes
            held.mem = []
            held.mem_bytes = 0
        held.mem.append((edge_id, tup))
        held.mem_bytes += tup.size

    def ack(self, upstream_hau_id: str, edge_id: str, seq: int) -> int:
        """Downstream checkpoint ack: discard the tuples retained for
        ``edge_id`` through ``seq``; returns the bytes freed."""
        held = self._held.get(upstream_hau_id)
        if held is None:
            return 0
        held.mem, mem_freed = _drop_through(held.mem, edge_id, seq)
        held.disk, disk_freed = _drop_through(held.disk, edge_id, seq)
        held.mem_bytes -= mem_freed
        held.disk_bytes -= disk_freed
        return mem_freed + disk_freed

    def replay(self, upstream_hau_id: str, edge_id: str, after_seq: int):
        """Process generator returning ``edge_id``'s retained tuples after
        ``after_seq`` in seq order; reading its spilled ones costs a disk
        read of their bytes."""
        held = self._held.get(upstream_hau_id)
        if held is None:
            return []
        held.node.check_alive()
        spilled = [tup for eid, tup in held.disk if eid == edge_id and tup.seq > after_seq]
        if spilled:
            yield from held.node.disk.transfer(sum(tup.size for tup in spilled))
        in_mem = [tup for eid, tup in held.mem if eid == edge_id and tup.seq > after_seq]
        return sorted(spilled + in_mem, key=lambda t: t.seq)

    def retained_bytes(self, hau_id: str) -> int:
        """Bytes in the HAU's retention buffer, memory plus spilled disk."""
        held = self._held.get(hau_id)
        return 0 if held is None else held.mem_bytes + held.disk_bytes

    def buffer_lost(self, hau_id: str) -> bool:
        """True when the node holding the HAU's retention buffer died."""
        held = self._held.get(hau_id)
        return held is not None and not held.node.alive
