"""Data-center topology: racks, power domains, spare nodes.

The paper's failure study (Table I / §II-B1) is about a 2400+-node Google
data center organised as 30+ racks of ~80 blade servers; its evaluation
runs on 56 EC2 nodes.  :class:`DataCenter` supports both: an arbitrary
number of racks, a shared-storage node, and a pool of spare nodes used to
restart HAUs after failures (the paper restarts failed HAUs "on other
healthy nodes").
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.cluster.channel import Channel, DEFAULT_LATENCY
from repro.cluster.node import (
    DEFAULT_CORES,
    DEFAULT_NIC_BW,
    Node,
)
from repro.simulation.core import Environment, SimulationError


@dataclass
class ClusterSpec:
    """Shape and hardware parameters of a simulated cluster."""

    workers: int = 55
    spares: int = 8
    racks: int = 4
    cores_per_node: int = DEFAULT_CORES
    nic_bw: float = DEFAULT_NIC_BW
    # 2012 EC2 m1-class instance storage / EBS: the paper's Fig. 14/16
    # checkpoint and recovery times imply ~40 MB/s effective at the shared
    # storage node and ~60 MB/s on local instance disks.
    disk_bw: float = 60_000_000.0
    storage_disk_bw: float = 40_000_000.0
    latency: float = DEFAULT_LATENCY

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("cluster needs at least one worker")
        if self.racks < 1:
            raise ValueError("cluster needs at least one rack")


class Rack:
    """A failure-correlation domain (top-of-rack switch + power feed):
    ``nodes`` are the workers and spares that fail-stop with it."""

    def __init__(self, rack_id: str):
        self.rack_id = rack_id
        self.nodes: list[Node] = []

    def fail_all(self, cause: str = "rack-failure") -> list[Node]:
        """Rack switch/power failure: every hosted node fail-stops."""
        victims = [n for n in self.nodes if n.alive]
        for node in victims:
            node.fail(cause)
        return victims

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Rack {self.rack_id} nodes={len(self.nodes)}>"


class DataCenter:
    """Nodes + racks + storage node + spare pool + channel factory."""

    def __init__(self, env: Environment, spec: ClusterSpec | None = None):
        self.env = env
        self.spec = spec or ClusterSpec()
        self.racks: list[Rack] = [Rack(f"rack{i}") for i in range(self.spec.racks)]
        self.workers: list[Node] = []
        self.spares: list[Node] = []
        # Every node ever created, by id.  A claimed spare leaves ``spares``
        # but stays here: it now hosts recovered HAUs and must remain a
        # target for by-id lookups (a second failure after recovery).
        self._nodes: dict[str, Node] = {}
        self._racks_by_id = {rack.rack_id: rack for rack in self.racks}
        self._channels: list[Channel] = []

        def make(node_id: str, rack: Rack, disk_bw: float) -> Node:
            node = Node(
                env,
                node_id,
                rack=rack.rack_id,
                cores=self.spec.cores_per_node,
                nic_bw=self.spec.nic_bw,
                disk_bw=disk_bw,
            )
            self._nodes[node_id] = node
            return node

        def racked(prefix: str, count: int) -> Iterator[Node]:
            """Round-robin over the racks, joining each one's failure domain."""
            for i in range(count):
                rack = self.racks[i % self.spec.racks]
                node = make(f"{prefix}{i}", rack, self.spec.disk_bw)
                rack.nodes.append(node)
                yield node

        self.workers.extend(racked("w", self.spec.workers))
        self.spares.extend(racked("spare", self.spec.spares))
        # Storage (and controller) node: behind rack 0's switch (its links
        # partition with that rack) but in no rack's failure domain — the
        # paper's shared storage is a reliable service, not a blade in a
        # worker rack, so a rack burst leaves it up.  Killing it is its
        # own failure: a `node` kill of "storage" still works.
        self.storage_node = make("storage", self.racks[0], self.spec.storage_disk_bw)

    # -- lookups -----------------------------------------------------------------
    @property
    def all_nodes(self) -> list[Node]:
        """Workers, spares (claimed ones included), then the storage node."""
        return list(self._nodes.values())

    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def rack_of(self, node: Node) -> Rack:
        if self._nodes.get(node.node_id) is not node:
            raise KeyError(node.node_id)
        return self._racks_by_id[node.rack]

    def alive_workers(self) -> list[Node]:
        return [n for n in self.workers if n.alive]

    def claim_spare(self) -> Node:
        """Take a healthy spare out of the pool (for HAU restart)."""
        for i, node in enumerate(self.spares):
            if node.alive:
                return self.spares.pop(i)
        raise SimulationError("no healthy spare nodes left")

    def spares_available(self) -> int:
        return sum(1 for n in self.spares if n.alive)

    # -- channels ----------------------------------------------------------------
    def connect(
        self,
        src: Node,
        dst: Node,
        name: str = "",
        capacity: float = float("inf"),
    ) -> Channel:
        chan = Channel(
            self.env,
            src,
            dst,
            latency=self.spec.latency,
            name=name,
            capacity=capacity,
        )
        self._channels.append(chan)
        return chan

    def channels(self) -> Iterator[Channel]:
        return iter(self._channels)
