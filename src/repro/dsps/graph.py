"""Query network: the DAG of HAUs and typed edges between them.

§II-A: "A directed acyclic graph, termed query network, specifies the
producer-consumer relations between operators."  Each HAU here hosts a
chain of one or more operators (the paper's evaluation uses one operator
per HAU); edges carry an output-port and input-port index plus an
optional routing mode for fan-out groups (broadcast vs key-hash, e.g.
"each GoogleMap operator connects to all Group operators").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.dsps.operator import Operator


class GraphError(Exception):
    """Malformed query network."""


@dataclass
class HAUSpec:
    """Blueprint for one High Availability Unit.

    ``make_operators`` is a factory (re-invoked when the HAU is restarted
    on a spare node after a failure) returning the operator chain.
    """

    hau_id: str
    make_operators: Callable[[], list[Operator]]
    is_source: bool = False
    is_sink: bool = False


@dataclass
class EdgeSpec:
    """A stream between two HAUs."""

    src: str
    dst: str
    src_port: int = 0
    dst_port: int = 0
    routing: str = "broadcast"  # "broadcast" | "hash" — for fan-out groups

    def __post_init__(self) -> None:
        # Precomputed: edge_id is read on every emission (per-edge output
        # sequence numbers, channel lookup), so a property that rebuilds
        # the string each time shows up in kernel profiles.
        self.edge_id = f"{self.src}[{self.src_port}]->{self.dst}[{self.dst_port}]"


class QueryGraph:
    """Builder + validator for a stream application's query network."""

    def __init__(self):
        self.haus: dict[str, HAUSpec] = {}
        self.edges: list[EdgeSpec] = []
        # Indexes over ``edges``, kept by connect() — its only mutation
        # point.  Adjacency lists hold each HAU's edges in edge-list order
        # (in-port indices, token bookkeeping and digests depend on it).
        self._out: dict[str, list[EdgeSpec]] = {}
        self._in: dict[str, list[EdgeSpec]] = {}
        self._in_index: dict[str, int] = {}  # edge_id -> position in _in[dst]

    # -- construction ------------------------------------------------------------
    def add_hau(
        self,
        hau_id: str,
        make_operators: Callable[[], list[Operator]],
        is_source: bool = False,
        is_sink: bool = False,
    ) -> HAUSpec:
        if hau_id in self.haus:
            raise GraphError(f"duplicate HAU id {hau_id!r}")
        spec = HAUSpec(hau_id, make_operators, is_source=is_source, is_sink=is_sink)
        self.haus[hau_id] = spec
        return spec

    def connect(
        self,
        src: str,
        dst: str,
        src_port: int = 0,
        dst_port: int = 0,
        routing: str = "broadcast",
    ) -> EdgeSpec:
        for end in (src, dst):
            if end not in self.haus:
                raise GraphError(f"unknown HAU {end!r}")
        if routing not in ("broadcast", "hash"):
            raise GraphError(f"unknown routing mode {routing!r}")
        edge = EdgeSpec(src, dst, src_port, dst_port, routing)
        if edge.edge_id in self._in_index:
            raise GraphError(f"duplicate edge {edge.edge_id}")
        self.edges.append(edge)
        self._out.setdefault(src, []).append(edge)
        ins = self._in.setdefault(dst, [])
        self._in_index[edge.edge_id] = len(ins)
        ins.append(edge)
        return edge

    # -- queries -------------------------------------------------------------------
    def out_edges(self, hau_id: str) -> list[EdgeSpec]:
        return list(self._out.get(hau_id, ()))

    def in_edges(self, hau_id: str) -> list[EdgeSpec]:
        return list(self._in.get(hau_id, ()))

    def in_edge_index(self, edge: EdgeSpec) -> int:
        """Position of ``edge`` in ``in_edges(edge.dst)`` (its in-edge index)."""
        return self._in_index[edge.edge_id]

    def upstream(self, hau_id: str) -> list[str]:
        return sorted({e.src for e in self.in_edges(hau_id)})

    def downstream(self, hau_id: str) -> list[str]:
        return sorted({e.dst for e in self.out_edges(hau_id)})

    def sources(self) -> list[str]:
        return sorted(h for h, s in self.haus.items() if s.is_source)

    def sinks(self) -> list[str]:
        return sorted(h for h, s in self.haus.items() if s.is_sink)

    def topological_order(self) -> list[str]:
        """HAU ids with every edge's src before its dst (Kahn's
        algorithm); raises :class:`GraphError` if there is a cycle."""
        waiting = {h: len(self._in.get(h, ())) for h in self.haus}
        order = [h for h, n in waiting.items() if n == 0]
        for hau_id in order:  # grows as HAUs lose their last unplaced in-edge
            for e in self._out.get(hau_id, ()):
                waiting[e.dst] -= 1
                if waiting[e.dst] == 0:
                    order.append(e.dst)
        if len(order) < len(self.haus):
            raise GraphError("query network contains a cycle")
        return order

    # -- validation -------------------------------------------------------------------
    def validate(self) -> None:
        """Check the network is a usable DAG.

        * acyclic (a *query network* is a DAG by definition);
        * sources have no in-edges and at least one out-edge;
        * sinks have no out-edges;
        * every non-source HAU is reachable from some source;
        * input ports of each HAU are contiguous 0..k-1.
        """
        if not self.haus:
            raise GraphError("empty graph")
        self.topological_order()  # raises on a cycle
        srcs = self.sources()
        if not srcs:
            raise GraphError("no source HAUs")
        for hau_id, spec in self.haus.items():
            ins = self.in_edges(hau_id)
            outs = self.out_edges(hau_id)
            if spec.is_source and ins:
                raise GraphError(f"source {hau_id} has inbound edges")
            if spec.is_source and not outs:
                raise GraphError(f"source {hau_id} has no outbound edges")
            if spec.is_sink and outs:
                raise GraphError(f"sink {hau_id} has outbound edges")
            if not spec.is_source and not ins:
                raise GraphError(f"non-source {hau_id} has no inbound edges")
            ports = sorted({e.dst_port for e in ins})
            if ports and ports != list(range(len(ports))):
                raise GraphError(f"{hau_id} input ports not contiguous: {ports}")
        reachable = set(srcs)
        frontier = list(srcs)
        for hau_id in frontier:  # grows as new HAUs are reached
            for e in self._out.get(hau_id, ()):
                if e.dst not in reachable:
                    reachable.add(e.dst)
                    frontier.append(e.dst)
        unreachable = set(self.haus) - reachable
        if unreachable:
            raise GraphError(f"unreachable HAUs: {sorted(unreachable)}")

    def __len__(self) -> int:
        return len(self.haus)
