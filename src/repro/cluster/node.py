"""Compute nodes: NIC and local-disk models plus fail-stop semantics.

A :class:`Node` is the unit of failure.  Killing a node interrupts every
simulation process registered on it (fail-stop: no spurious output after
the failure instant) and breaks every channel touching it.  A node has
no CPU model: an operator's processing cost is a timeout in its HAU's
loop (``HAURuntime._main_loop``), so HAUs sharing a node do not
contend for cores.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.simulation.core import Environment, Process
from repro.simulation.resources import Resource

# Defaults mirror the paper's EC2 setup: 1 Gbps NIC.
GBPS = 125_000_000  # 1 Gbps in bytes/second
DEFAULT_NIC_BW = GBPS
DEFAULT_DISK_BW = 100_000_000  # ~100 MB/s sequential commodity disk
DEFAULT_DISK_SEEK = 0.004  # 4 ms per operation


class NodeDownError(Exception):
    """Raised when an operation touches a node that has failed."""


class BandwidthPipe:
    """A serialising bandwidth resource (NIC egress or disk head).

    Transfers are serviced strictly FIFO; each holds the pipe for
    ``size / bandwidth`` (+ fixed per-op latency).  This models the key
    contention effect in the paper: 55 HAU states funnelling into one
    storage node's disk stretches a "parallel" checkpoint.

    Two lanes apply that one discipline.  :meth:`transfer` holds the
    pipe's ``Resource`` for each chunk (priorities, cancellation).
    :meth:`book` is for a caller that only needs to know *when* its
    bytes are through (a channel message): on an idle pipe FIFO service
    is arithmetic — it starts when everything booked before it is
    through (``busy_until``) — so no process has to wait for the grant.
    The lanes never overlap: bytes are booked only while nobody holds or
    waits for the ``Resource`` (see :attr:`idle`), and a transfer that
    is granted the ``Resource`` first waits out what was booked before it
    asked.  A transfer is therefore never delayed by bytes booked after
    it asked, and booked bytes wait for at most the one chunk in service.
    """

    #: default service quantum: large transfers are split into chunks so the
    #: FIFO pipe interleaves fairly (a 100 MB checkpoint write must not
    #: block 1 MB ingestion writes for seconds — GFS-style chunking).
    DEFAULT_CHUNK = 4 * 1024 * 1024

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        per_op_latency: float = 0.0,
        name: str = "",
        chunk_bytes: int = DEFAULT_CHUNK,
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.per_op_latency = float(per_op_latency)
        self.name = name
        self.chunk_bytes = int(chunk_bytes)
        self._res = Resource(env, capacity=1)
        self.busy_until = 0.0  # when the last booked byte is through
        self.bytes_moved = 0
        self.ops = 0

    @property
    def idle(self) -> bool:
        """Nobody holds the pipe's ``Resource`` — hence nobody waits for
        it either — so :meth:`book` may be called."""
        return not self._res._users

    def book(self, size: int) -> float:
        """Queue ``size`` bytes behind everything booked; returns the
        instant they are through.

        Only while :attr:`idle`, or by the holder of the ``Resource`` in
        place of its timed hold.  The arithmetic is :meth:`transfer`'s,
        operation for operation — per chunk ``now + (chunk / bandwidth
        [+ per-op latency])`` with ``now`` the instant the previous one
        ended — so an instant computed here is bit-equal to the one a
        process waiting through the same service would have reached.
        """
        now = self.env._now
        end = self.busy_until if self.busy_until > now else now
        remaining = size = int(size)
        per_op = self.per_op_latency
        while True:
            chunk = remaining if remaining < self.chunk_bytes else self.chunk_bytes
            end += chunk / self.bandwidth + per_op
            remaining -= chunk
            if remaining <= 0:
                break
            per_op = 0.0
        self.busy_until = end
        self.bytes_moved += size
        self.ops += 1
        return end

    def transfer(self, size: int, priority: int = 0):
        """Process generator: move ``size`` bytes through the pipe.

        The transfer is serviced in ``chunk_bytes`` quanta; between quanta
        the pipe is re-acquired (FIFO within a priority class), so
        concurrent transfers share bandwidth fairly and latency-sensitive
        small writes (priority 0) overtake bulk traffic (priority 1).
        """
        remaining = int(size)
        first = True
        while remaining > 0 or first:
            chunk = min(remaining, self.chunk_bytes) if remaining > 0 else 0
            req = self._res.request(priority=priority)
            try:
                yield req
                if self.busy_until > self.env._now:
                    # bytes booked before this request: they go first
                    yield self.env.schedule_at(self.env.event(), self.busy_until)
                duration = chunk / self.bandwidth
                if first:
                    duration += self.per_op_latency
                if duration > 0:
                    yield self.env.timeout(duration)
            finally:
                req.cancel()
            remaining -= chunk
            first = False
        self.bytes_moved += int(size)
        self.ops += 1

    def estimate(self, size: int) -> float:
        """Uncontended service time for ``size`` bytes."""
        return self.per_op_latency + size / self.bandwidth


class Node:
    """A fail-stop compute node.

    Attributes
    ----------
    nic_out:
        Egress bandwidth pipe shared by all channels sending from here.
    disk:
        Local disk pipe (used by input preservation spill and optional
        local checkpoint copies).
    """

    def __init__(
        self,
        env: Environment,
        node_id: str,
        rack: str | None = None,
        nic_bw: float = DEFAULT_NIC_BW,
        disk_bw: float = DEFAULT_DISK_BW,
        disk_seek: float = DEFAULT_DISK_SEEK,
    ):
        self.env = env
        self.node_id = node_id
        self.rack = rack
        self.nic_out = BandwidthPipe(env, nic_bw, name=f"{node_id}.nic")
        self.disk = BandwidthPipe(env, disk_bw, per_op_latency=disk_seek, name=f"{node_id}.disk")
        self.alive = True
        self.failed_at: float | None = None
        self._processes: list[Process] = []
        self._on_fail: list[Callable[["Node"], None]] = []

    # -- process management --------------------------------------------------
    def spawn(self, generator, label: str = "") -> Process:
        """Run a process *on this node*: it dies when the node fails."""
        if not self.alive:
            raise NodeDownError(f"spawn on dead node {self.node_id}")
        proc = self.env.process(generator, label=f"{self.node_id}:{label}")
        self._processes.append(proc)
        return proc

    def on_fail(self, callback: Callable[["Node"], None]) -> None:
        """Register a callback invoked at the failure instant.

        If the node is already down, the callback fires immediately —
        observers must not wait forever on a failure that already happened.
        """
        if not self.alive:
            callback(self)
        else:
            self._on_fail.append(callback)

    def fail(self, cause: Any = "fail-stop") -> None:
        """Fail-stop: interrupt all hosted processes, notify observers."""
        if not self.alive:
            return
        self.alive = False
        self.failed_at = self.env.now
        procs, self._processes = self._processes, []
        for proc in procs:
            proc.interrupt(cause)
        observers, self._on_fail = list(self._on_fail), []
        for cb in observers:
            cb(self)

    def check_alive(self) -> None:
        if not self.alive:
            raise NodeDownError(self.node_id)

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.alive else "DOWN"
        return f"<Node {self.node_id} {state}>"
