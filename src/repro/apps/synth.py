"""Declarative synthetic application: a stream graph built from data.

Where :mod:`repro.apps.tmi` / ``bcp`` / ``signalguru`` hard-code the
paper's three evaluation topologies, ``synth`` constructs an
application from a JSON-ready *topology spec* — the stream-graph half
of the scenario DSL (:mod:`repro.scenarios`).  A topology is a list of
**stages** (replica groups of one operator shape) plus **edges**
between stages::

    topology = {
        "stages": [
            {"name": "S", "kind": "source", "replicas": 4,
             "count": 80, "interval": 0.5, "size": 65536,
             "shape": "constant"},                   # | poisson | burst
            {"name": "W", "kind": "map", "replicas": 4,
             "size": 32768, "cost_per_byte": 2e-7, "state_window": 40},
            {"name": "K", "kind": "sink", "replicas": 1},
        ],
        "edges": [
            {"src": "S", "dst": "W", "routing": "hash", "pairing": "all"},
            {"src": "W", "dst": "K"},
        ],
    }

Every field is a scalar, so topologies ride through ``app_params``,
``config_fingerprint`` and the sweep cache unchanged.  Determinism
contract: sources draw from ``np.random.default_rng`` streams derived
from the experiment seed and the stage index, tuples carry integer
routing keys (``hash(int)`` is the identity, immune to
``PYTHONHASHSEED``), and map state is a bounded pool cleared at
``state_window`` — a sawtooth like the paper's k-means pools.

HAU ids are ``{name}{i}`` per replica (bare ``name`` for single-replica
stages), so stage names double as metric/probe prefixes; no stage name
may be a prefix of another.  Each outgoing edge-group of a stage gets
its own source port: map operators emit once per out-group, so fan-out
to two stages duplicates the stream (broadcast semantics between
groups, per-edge ``routing`` within a group).
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.base import AppProfile, SizedPayload
from repro.dsps.graph import QueryGraph
from repro.dsps.operator import Emit, Operator, SinkOperator, SourceOperator
from repro.simulation.core import paused_gc
from repro.state.spec import StateHint

PROFILE = AppProfile(
    name="synth", hau_count=55, state_min_mb=0.0, state_max_mb=200.0,
    state_avg_mb=60.0, workload="medium",
)

STAGE_KINDS = ("source", "map", "sink")
SOURCE_SHAPES = ("constant", "poisson", "burst")
ROUTINGS = ("broadcast", "hash")
PAIRINGS = ("all", "aligned")

DEFAULT_SIZE = 64 * 1024
DEFAULT_INTERVAL = 0.55
DEFAULT_COUNT = 100_000
DEFAULT_COST_PER_BYTE = 270e-9
DEFAULT_SOURCE_COST_PER_BYTE = 3e-9
DEFAULT_FIXED_COST = 20e-6
DEFAULT_STATE_WINDOW = 64
DEFAULT_KEYSPACE = 1024

#: The default pipeline: 55 HAUs shaped like the paper's applications
#: (10 sources, two 22-wide processing tiers, one sink) so ``synth``
#: satisfies the same structural contract as tmi/bcp/signalguru.
DEFAULT_TOPOLOGY = {
    "stages": [
        {"name": "S", "kind": "source", "replicas": 10},
        {"name": "W", "kind": "map", "replicas": 22, "state_window": 32},
        {"name": "A", "kind": "map", "replicas": 22, "state_window": 96},
        {"name": "K", "kind": "sink", "replicas": 1},
    ],
    "edges": [
        {"src": "S", "dst": "W", "routing": "hash", "pairing": "all"},
        {"src": "W", "dst": "A", "pairing": "aligned"},
        {"src": "A", "dst": "K"},
    ],
}


class TopologyError(ValueError):
    """Malformed synthetic-topology spec (message names the bad field)."""


class SynthSource(SourceOperator):
    """A seeded generator stage replica.

    ``shape`` picks the inter-arrival process: ``constant`` (fixed
    ``interval``), ``poisson`` (exponential inter-arrivals with mean
    ``interval``) or ``burst`` (``burst_len`` tuples at ``interval /
    burst_factor`` then one long gap, mean rate preserved).
    """

    def __init__(
        self,
        seed: int,
        name: str,
        count: int,
        interval: float,
        size: int,
        shape: str = "constant",
        burst_len: int = 16,
        burst_factor: float = 8.0,
        keyspace: int = DEFAULT_KEYSPACE,
    ):
        super().__init__(name=name)
        self.seed = seed
        self.count = int(count)
        self.interval = float(interval)
        self.size = int(size)
        self.shape = shape
        self.burst_len = int(burst_len)
        self.burst_factor = float(burst_factor)
        self.keyspace = int(keyspace)

    def generate(self):
        rng = np.random.default_rng(self.seed)
        fast = self.interval / self.burst_factor
        # burst mean rate == constant rate: the gap repays the fast phase
        gap = self.interval * self.burst_len - fast * (self.burst_len - 1)
        for i in range(self.count):
            if self.shape == "poisson":
                delay = float(rng.exponential(self.interval))
            elif self.shape == "burst":
                delay = gap if i % self.burst_len == 0 else fast
            else:
                delay = self.interval
            key = int(rng.integers(self.keyspace))
            payload = SizedPayload(
                data={"i": i, "src": self.name, "key": key},
                nominal_size=self.size,
            )
            yield (delay, Emit(payload=payload, size=self.size, key=key))

    def processing_cost(self, tup):
        return DEFAULT_SOURCE_COST_PER_BYTE * tup.size


class SynthWorker(Operator):
    """A stateful transform stage replica.

    Retains processed payloads in a bounded pool that clears at
    ``state_window`` elements (sawtooth state, Fig. 5 shape); emits one
    transformed tuple of ``out_size`` bytes per out-group, preserving
    the routing key.
    """

    state_attrs = ("pool", "processed")

    def __init__(
        self,
        name: str,
        out_size: int,
        cost_per_byte: float,
        state_window: int,
        out_ports: int,
    ):
        super().__init__(name=name)
        self.out_size = int(out_size)
        self.cost_per_byte = float(cost_per_byte)
        self.state_window = int(state_window)
        self.out_ports = int(out_ports)
        self.pool: list = []
        self.processed = 0
        # element sizes vary per topology: hint with the emit size
        self.state_hints = {"pool": StateHint(element_size=self.out_size)}

    def on_tuple(self, port, tup):
        self.processed += 1
        self.pool.append(
            SizedPayload(data={"i": self.processed}, nominal_size=self.out_size)
        )
        if len(self.pool) >= self.state_window:
            self.pool = []
        payload = SizedPayload(
            data={"i": self.processed, "via": self.name, "key": tup.key},
            nominal_size=self.out_size,
        )
        return [
            Emit(payload=payload, size=self.out_size, port=p, key=tup.key)
            for p in range(self.out_ports)
        ]

    def processing_cost(self, tup):
        return DEFAULT_FIXED_COST + self.cost_per_byte * tup.size


# -- topology validation ------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise TopologyError(message)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)


_INT_GE0 = (lambda v: _is_int(v) and v >= 0, "an int >= 0")
_INT_GE1 = (lambda v: _is_int(v) and v >= 1, "an int >= 1")
_FINITE_GT0 = (lambda v: _is_finite(v) and v > 0, "finite and > 0")
_FINITE_GE0 = (lambda v: _is_finite(v) and v >= 0, "finite and >= 0")

#: The numeric fields a stage kind reads, each checked when present
#: (the defaults pass): field -> (predicate, what it must be).
STAGE_FIELDS = {
    "source": {
        "count": _INT_GE0,
        "interval": _FINITE_GT0,
        "size": _INT_GE0,
        "burst_len": _INT_GE1,
        "burst_factor": _FINITE_GT0,
        "keyspace": _INT_GE1,
    },
    "map": {"size": _INT_GE0, "cost_per_byte": _FINITE_GE0},
}


def _check_topology(topo: dict) -> tuple[list[dict], list[dict]]:
    _require(isinstance(topo, dict), "topology must be a mapping")
    stages = topo.get("stages")
    edges = topo.get("edges")
    _require(isinstance(stages, list) and stages, "topology.stages must be a non-empty list")
    _require(isinstance(edges, list) and edges, "topology.edges must be a non-empty list")
    names: list[str] = []
    for i, stage in enumerate(stages):
        _require(isinstance(stage, dict), f"topology.stages[{i}] must be a mapping")
        name = stage.get("name")
        _require(
            isinstance(name, str) and name.isidentifier(),
            f"topology.stages[{i}].name must be an identifier string",
        )
        kind = stage.get("kind")
        _require(
            kind in STAGE_KINDS,
            f"topology.stages[{i}].kind {kind!r} is not one of {STAGE_KINDS}",
        )
        replicas = stage.get("replicas", 1)
        _require(
            isinstance(replicas, int) and replicas >= 1,
            f"topology.stages[{i}].replicas must be an int >= 1",
        )
        shape = stage.get("shape", "constant")
        _require(
            shape in SOURCE_SHAPES,
            f"topology.stages[{i}].shape {shape!r} is not one of {SOURCE_SHAPES}",
        )
        for field, (ok, must_be) in STAGE_FIELDS.get(kind, {}).items():
            if field in stage:
                _require(
                    ok(stage[field]),
                    f"topology.stages[{i}].{field} must be {must_be}, not {stage[field]!r}",
                )
        names.append(name)
    _require(len(set(names)) == len(names), "topology stage names must be unique")
    for a in names:
        for b in names:
            _require(
                a == b or not b.startswith(a),
                f"stage name {a!r} is a prefix of {b!r} — HAU ids would be ambiguous",
            )
    by_name = {s["name"]: s for s in stages}
    for i, edge in enumerate(edges):
        _require(isinstance(edge, dict), f"topology.edges[{i}] must be a mapping")
        for end in ("src", "dst"):
            _require(
                edge.get(end) in by_name,
                f"topology.edges[{i}].{end} {edge.get(end)!r} is not a declared stage",
            )
        routing = edge.get("routing", "broadcast")
        _require(
            routing in ROUTINGS,
            f"topology.edges[{i}].routing {routing!r} is not one of {ROUTINGS}",
        )
        pairing = edge.get("pairing", "all")
        _require(
            pairing in PAIRINGS,
            f"topology.edges[{i}].pairing {pairing!r} is not one of {PAIRINGS}",
        )
        _require(
            by_name[edge["dst"]]["kind"] != "source",
            f"topology.edges[{i}]: source stage {edge['dst']!r} cannot receive an edge",
        )
        _require(
            by_name[edge["src"]].get("kind") != "sink",
            f"topology.edges[{i}]: sink stage {edge['src']!r} cannot emit an edge",
        )
    return stages, edges


def _hau_ids(stage: dict) -> list[str]:
    n = stage.get("replicas", 1)
    if n == 1:
        return [stage["name"]]
    return [f"{stage['name']}{i}" for i in range(n)]


@paused_gc()
def build(seed: int = 0, topology: dict | None = None) -> "StreamApplication":
    """Build a synthetic application from a declarative topology spec."""
    from repro.dsps.application import StreamApplication

    topo = topology if topology is not None else DEFAULT_TOPOLOGY
    stages, edges = _check_topology(topo)
    by_name = {s["name"]: s for s in stages}
    # src_port per outgoing edge-group, in edge-list order
    out_groups: dict[str, list[dict]] = {s["name"]: [] for s in stages}
    for edge in edges:
        out_groups[edge["src"]].append(edge)

    g = QueryGraph()
    for si, stage in enumerate(stages):
        kind = stage["kind"]
        n_ports = max(1, len(out_groups[stage["name"]]))
        for ri, hau_id in enumerate(_hau_ids(stage)):
            if kind == "source":
                maker = (
                    lambda stage=stage, si=si, ri=ri, hau_id=hau_id: [
                        SynthSource(
                            seed=seed * 10_000 + si * 100 + ri,
                            name=hau_id,
                            count=stage.get("count", DEFAULT_COUNT),
                            interval=stage.get("interval", DEFAULT_INTERVAL),
                            size=stage.get("size", DEFAULT_SIZE),
                            shape=stage.get("shape", "constant"),
                            burst_len=stage.get("burst_len", 16),
                            burst_factor=stage.get("burst_factor", 8.0),
                            keyspace=stage.get("keyspace", DEFAULT_KEYSPACE),
                        )
                    ]
                )
                g.add_hau(hau_id, maker, is_source=True)
            elif kind == "map":
                maker = (
                    lambda stage=stage, hau_id=hau_id, n_ports=n_ports: [
                        SynthWorker(
                            name=hau_id,
                            out_size=stage.get("size", DEFAULT_SIZE),
                            cost_per_byte=stage.get(
                                "cost_per_byte", DEFAULT_COST_PER_BYTE
                            ),
                            state_window=stage.get(
                                "state_window", DEFAULT_STATE_WINDOW
                            ),
                            out_ports=n_ports,
                        )
                    ]
                )
                g.add_hau(hau_id, maker)
            else:
                g.add_hau(
                    hau_id,
                    lambda hau_id=hau_id: [SinkOperator(name=hau_id)],
                    is_sink=True,
                )

    for edge in edges:
        src_stage, dst_stage = by_name[edge["src"]], by_name[edge["dst"]]
        port = out_groups[edge["src"]].index(edge)
        routing = edge.get("routing", "broadcast")
        pairing = edge.get("pairing", "all")
        src_ids, dst_ids = _hau_ids(src_stage), _hau_ids(dst_stage)
        if pairing == "aligned":
            for i, src_id in enumerate(src_ids):
                g.connect(src_id, dst_ids[i % len(dst_ids)], src_port=port,
                          routing=routing)
        else:
            for src_id in src_ids:
                for dst_id in dst_ids:
                    g.connect(src_id, dst_id, src_port=port, routing=routing)

    # probe at the last map stage before a sink (falls back to the sink)
    sinks = [s for s in stages if s["kind"] == "sink"]
    maps = [s for s in stages if s["kind"] == "map"]
    probe = (maps[-1] if maps else sinks[0])["name"] if sinks else stages[-1]["name"]
    return StreamApplication(
        name="synth",
        graph=g,
        params={"topology": topo, "seed": seed, "probe_prefix": probe},
    )
