"""Shared storage service (GFS stand-in) and its client stub.

Writes: the client ships ``size`` bytes over its NIC (+ latency), then the
storage node's disk absorbs them.  Reads: a small request travels over,
the disk produces the bytes, and they return over the storage node's NIC.
All disk traffic serialises on the storage node's single disk pipe —
this contention is what stretches "parallel" checkpoints when 55 HAUs
write at once (Fig. 14) and recovery when 55 HAUs read at once (Fig. 16).

Data is stored under ``(namespace, key)`` with version history, because a
recovering application must load the *consistent cut* (all individual
checkpoints belonging to one application checkpoint), not merely each
HAU's newest state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cluster.channel import DEFAULT_LATENCY
from repro.cluster.node import Node
from repro.simulation.core import Environment

REQUEST_SIZE = 512  # bytes: a read/write RPC header


class StorageError(Exception):
    """Storage operation failed (e.g. missing key, dead client node)."""


@dataclass
class StoredObject:
    """One immutable version of a stored value."""

    namespace: str
    key: str
    version: int
    size: int
    value: Any
    written_at: float


class SharedStorage:
    """The service side: keyed, versioned blobs on the storage node."""

    def __init__(self, env: Environment, node: Node, latency: float = DEFAULT_LATENCY):
        self.env = env
        self.node = node
        self.latency = latency
        self._objects: dict[tuple[str, str], list[StoredObject]] = {}
        self._next_version: dict[tuple[str, str], int] = {}
        self.bytes_written = 0
        self.bytes_read = 0
        # the same bytes per namespace, for the telemetry fold
        self.written_by_namespace: dict[str, int] = {}
        self.read_by_namespace: dict[str, int] = {}

    # -- data plane (used via StorageClient) ------------------------------------
    def _absorb(self, namespace: str, key: str, value: Any, size: int, priority: int = 0):
        """Disk-write ``size`` bytes then commit the object version."""
        yield from self.node.disk.transfer(size, priority=priority)
        pair = (namespace, key)
        versions = self._objects.setdefault(pair, [])
        # Version numbers are monotone per key and never reused, even after
        # garbage collection — a recovery must never read a stale object
        # under a recycled version number.
        version = self._next_version.get(pair, 0)
        self._next_version[pair] = version + 1
        versions.append(
            StoredObject(
                namespace=namespace,
                key=key,
                version=version,
                size=int(size),
                value=value,
                written_at=self.env.now,
            )
        )
        self.bytes_written += int(size)
        by_ns = self.written_by_namespace
        by_ns[namespace] = by_ns.get(namespace, 0) + int(size)

    def _produce(self, namespace: str, key: str, version: int | None, priority: int = 0):
        obj = self.lookup(namespace, key, version)
        yield from self.node.disk.transfer(obj.size, priority=priority)
        self.bytes_read += obj.size
        by_ns = self.read_by_namespace
        by_ns[namespace] = by_ns.get(namespace, 0) + obj.size
        return obj

    # -- control plane (instant metadata access for the co-located controller) --
    def lookup(self, namespace: str, key: str, version: int | None = None) -> StoredObject:
        versions = self._objects.get((namespace, key))
        if not versions:
            raise StorageError(f"no object {namespace}/{key}")
        if version is None:
            return versions[-1]
        for obj in versions:
            if obj.version == version:
                return obj
        raise StorageError(f"no version {version} of {namespace}/{key}")

    def exists(self, namespace: str, key: str) -> bool:
        return (namespace, key) in self._objects

    def keys(self, namespace: str) -> list[str]:
        return sorted(k for (ns, k) in self._objects if ns == namespace)

    def latest_version(self, namespace: str, key: str) -> int:
        return self.lookup(namespace, key).version

    def drop_versions_before(self, namespace: str, key: str, version: int) -> None:
        """Garbage-collect superseded checkpoints / acked preserved tuples."""
        pair = (namespace, key)
        versions = self._objects.get(pair)
        if versions:
            self._objects[pair] = [o for o in versions if o.version >= version]

    def total_bytes(self, namespace: str | None = None) -> int:
        return sum(
            obj.size
            for (ns, _k), versions in self._objects.items()
            for obj in versions
            if namespace is None or ns == namespace
        )


class StorageClient:
    """Per-node stub billing transfers to the client's NIC.

    ``write``/``read`` are process generators to be driven with
    ``yield from`` inside node-hosted processes.
    """

    def __init__(self, node: Node, storage: SharedStorage):
        self.node = node
        self.storage = storage

    def write(self, namespace: str, key: str, value: Any, size: int, bulk: bool = False):
        """Ship ``size`` bytes to shared storage; returns committed version.

        ``bulk=True`` marks background traffic (checkpoint state): it
        yields the disk/NIC to small latency-sensitive writes (source
        preservation) between service quanta.
        """
        self.node.check_alive()
        size = int(size)
        prio = 1 if bulk else 0
        # request + payload over client NIC
        yield from self.node.nic_out.transfer(REQUEST_SIZE + size, priority=prio)
        yield self.node.env.timeout(self.storage.latency)
        if not self.storage.node.alive:
            raise StorageError("storage node down")
        yield from self.storage._absorb(namespace, key, value, size, priority=prio)
        self.node.check_alive()
        return self.storage.latest_version(namespace, key)

    def read(self, namespace: str, key: str, version: int | None = None, bulk: bool = False):
        """Fetch an object; returns the :class:`StoredObject`."""
        self.node.check_alive()
        prio = 1 if bulk else 0
        yield from self.node.nic_out.transfer(REQUEST_SIZE, priority=prio)
        yield self.node.env.timeout(self.storage.latency)
        if not self.storage.node.alive:
            raise StorageError("storage node down")
        obj = yield from self.storage._produce(namespace, key, version, priority=prio)
        # payload back over the storage node's NIC
        yield from self.storage.node.nic_out.transfer(obj.size, priority=prio)
        yield self.node.env.timeout(self.storage.latency)
        self.node.check_alive()
        return obj
