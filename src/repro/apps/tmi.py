"""Transportation Mode Inference (TMI) — Fig. 2, 55 HAUs.

"It collects the position data of mobile phones from base stations ...
infers the transportation mode (driving, taking bus, walking or
remaining still) of mobile phone bearers in real time.  The kernel of
TMI is the k-means clustering algorithm.  In each N-minute-long time
window, a k-means operator retains input tuples in an internal pool and
clusters the tuples at the end of the time window."

Topology: 10 position sources (S), 12 Pair operators (P) computing
speeds, 12 GoogleMap operators (M) attaching per-mode reference speeds —
each M connects to ALL 10 Group operators (G, key-hash routed) — 10
k-means operators (A), one sink (K).  10+12+12+10+10+1 = 55 HAUs.

The dataset stand-in: seeded synthetic phone trajectories with
mode-dependent speed distributions (the paper used 829 M anonymised
location records; see DESIGN.md substitutions).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppProfile, SizedPayload
from repro.apps.kernels.kmeans import kmeans
from repro.dsps.graph import QueryGraph
from repro.dsps.operator import Emit, Operator, SinkOperator, SourceOperator
from repro.state.spec import StateHint

PROFILE = AppProfile(
    name="tmi", hau_count=55, state_min_mb=0.0, state_max_mb=300.0,
    state_avg_mb=150.0, workload="low",
)

N_SOURCES = 10
N_PAIR = 12
N_GMAP = 12
N_GROUP = 10
N_KMEANS = 10

BATCH_SIZE = 300 * 1024  # one base-station batch on the wire (compressed records)
SUB_BATCH_SIZE = BATCH_SIZE // N_GROUP
POOL_ITEM_SIZE = SUB_BATCH_SIZE // 9  # decoded feature rows in the pool
PHONES_PER_BATCH = 40

# Per-byte CPU costs (seconds/byte); M is the bottleneck stage.
COST_SRC = 3e-9
COST_PAIR = 270e-9
COST_GMAP = 2700e-9
COST_GROUP = 400e-9
COST_KMEANS_APPEND = 270e-9

MODE_SPEEDS = {0: 0.2, 1: 1.4, 2: 8.0, 3: 16.0}  # still/walk/bus/drive m/s
_MODE_SPEED_TABLE = np.array([MODE_SPEEDS[m] for m in range(len(MODE_SPEEDS))])


class PositionSource(SourceOperator):
    """A base station emitting aggregated position batches (closed loop)."""

    def __init__(self, seed: int, station: int, count: int, interval: float):
        super().__init__(name=f"S{station}")
        self.seed = seed
        self.station = station
        self.count = count
        self.interval = interval

    def generate(self):
        rng = np.random.default_rng(self.seed)
        for i in range(self.count):
            modes = rng.integers(0, 4, size=PHONES_PER_BATCH)
            speeds = _MODE_SPEED_TABLE[modes]  # a fresh array: scaled in place
            speeds *= rng.uniform(0.7, 1.3, size=PHONES_PER_BATCH)
            phones = rng.integers(0, 10_000, size=PHONES_PER_BATCH)
            # rng.uniform(0, 1000) draws 0.0 + 1000.0 * u: the same doubles
            positions = rng.random((PHONES_PER_BATCH, 2))
            positions *= 1000.0
            batch = SizedPayload(
                data={
                    "station": self.station,
                    "phones": phones,
                    "positions": positions,
                    "speeds": speeds,  # ground truth for accuracy checks
                    "batch_no": i,
                },
                nominal_size=BATCH_SIZE,
            )
            # key alternates per batch so stations with two Pair operators
            # (S8, S9) split their stream instead of duplicating it
            yield (self.interval, Emit(payload=batch, size=BATCH_SIZE, key=(self.station, i)))

    def processing_cost(self, tup):
        return COST_SRC * tup.size


class PairOperator(Operator):
    """Computes per-phone speeds by pairing consecutive position batches.

    State: the previous batch per station (bounded; small)."""

    state_attrs = ("last_positions",)
    state_hints = {"last_positions": StateHint(element_size=64)}

    def __init__(self, idx: int):
        super().__init__(name=f"P{idx}")
        self.last_positions: dict = {}

    def on_tuple(self, port, tup):
        batch = tup.payload.data
        prev = self.last_positions.get(batch["station"])
        self.last_positions[batch["station"]] = batch["positions"]
        if prev is not None and len(prev) == len(batch["positions"]):
            # np.linalg.norm(d, axis=1) is exactly this for real ``d``,
            # minus its dispatch
            d = batch["positions"] - prev
            displacement = np.sqrt(np.add.reduce(d * d, axis=1))
        else:
            displacement = np.zeros(len(batch["positions"]))
        speeds = SizedPayload(
            data={
                "phones": batch["phones"],
                "speeds": batch["speeds"],  # measured speeds (synthetic truth)
                "displacement": displacement,
            },
            nominal_size=BATCH_SIZE,
        )
        return [Emit(payload=speeds, size=BATCH_SIZE, key=batch["station"])]

    def processing_cost(self, tup):
        return COST_PAIR * tup.size


class GoogleMapOperator(Operator):
    """Attaches per-mode reference speeds ("downloading reference speed for
    each transportation mode") and splits the batch into per-group
    sub-batches, key-routed to all Group operators."""

    state_attrs = ("reference_cache",)
    state_hints = {"reference_cache": StateHint(element_size=256)}

    def __init__(self, idx: int):
        super().__init__(name=f"M{idx}")
        self.reference_cache: dict = {m: MODE_SPEEDS[m] for m in MODE_SPEEDS}

    def on_tuple(self, port, tup):
        data = tup.payload.data
        groups = data["phones"] % N_GROUP
        # one stable sort puts each group's rows together in arrival
        # order: the same rows, in the same order, as a mask per group
        order = groups.argsort(kind="stable")
        phones = data["phones"][order]
        features = np.column_stack([data["speeds"], data["displacement"]])[order]
        out = []
        end = 0
        for g, n in enumerate(np.bincount(groups, minlength=N_GROUP).tolist()):
            if not n:
                continue
            start, end = end, end + n
            sub = SizedPayload(
                data={"group": g, "phones": phones[start:end],
                      "features": features[start:end]},
                nominal_size=SUB_BATCH_SIZE,
            )
            out.append(Emit(payload=sub, size=SUB_BATCH_SIZE, key=g))
        return out

    def processing_cost(self, tup):
        return COST_GMAP * tup.size


class GroupOperator(Operator):
    """Collects one phone-group's sub-batches and forwards to its k-means."""

    state_attrs = ("forwarded",)

    def __init__(self, idx: int):
        super().__init__(name=f"G{idx}")
        self.idx = idx
        self.forwarded = 0

    def on_tuple(self, port, tup):
        self.forwarded += 1
        return [Emit(payload=tup.payload, size=tup.size, key=self.idx)]

    def processing_cost(self, tup):
        return COST_GROUP * tup.size


class KMeansOperator(Operator):
    """Pools features for an N-minute window, clusters at the boundary.

    The pool is the dominant, sawtooth-shaped state (Fig. 5a): it ramps to
    tens of MB and collapses to nothing when the window is clustered and
    discarded."""

    state_attrs = ("pool", "window_start", "windows_done")
    state_hints = {"pool": StateHint(element_size=POOL_ITEM_SIZE)}

    def __init__(self, idx: int, window_seconds: float):
        super().__init__(name=f"A{idx}")
        self.idx = idx
        self.window_seconds = window_seconds
        self.pool: list = []
        self.window_start: float = -1.0
        self.windows_done = 0

    def on_tuple(self, port, tup):
        # window boundaries are data-driven (tuple creation times), so a
        # recovered operator reproduces the failed one's windows exactly
        if self.window_start < 0:
            self.window_start = tup.created_at
        out = []
        if tup.created_at - self.window_start >= self.window_seconds and self.pool:
            out.append(self._flush())
            self.window_start = tup.created_at
        self.pool.append(tup.payload)
        return out

    def _flush(self) -> Emit:
        features = np.vstack([p.data["features"] for p in self.pool])
        centroids, labels = kmeans(features, k=4, iterations=8)
        counts = np.bincount(labels, minlength=4)
        self.pool = []
        self.windows_done += 1
        result = SizedPayload(
            data={
                "group": self.idx,
                "window": self.windows_done,
                "centroids": centroids,
                "mode_counts": counts,
                "n_points": len(features),
            },
            nominal_size=4096,
        )
        return Emit(payload=result, size=4096, key=self.idx)

    def processing_cost(self, tup):
        return COST_KMEANS_APPEND * tup.size


def build(
    seed: int = 0,
    n_minutes: float = 10.0,
    batches_per_source: int = 100000,
    source_interval: float = 0.55,
) -> "StreamApplication":
    """Build the TMI application.

    ``n_minutes`` is the paper's N (k-means window length).  Sources are
    effectively closed-loop: ``source_interval`` is the minimum pacing and
    backpressure governs the real rate.
    """
    from repro.dsps.application import StreamApplication

    g = QueryGraph()
    window_seconds = n_minutes * 60.0

    for i in range(N_SOURCES):
        g.add_hau(
            f"S{i}",
            (lambda i=i: [PositionSource(seed * 1000 + i, i, batches_per_source, source_interval)]),
            is_source=True,
        )
    for i in range(N_PAIR):
        g.add_hau(f"P{i}", lambda i=i: [PairOperator(i)])
    for i in range(N_GMAP):
        g.add_hau(f"M{i}", lambda i=i: [GoogleMapOperator(i)])
    for i in range(N_GROUP):
        g.add_hau(f"G{i}", lambda i=i: [GroupOperator(i)])
    for i in range(N_KMEANS):
        g.add_hau(f"A{i}", lambda i=i: [KMeansOperator(i, window_seconds)])
    g.add_hau("K", lambda: [SinkOperator(name="K")], is_sink=True)

    # S -> P: one per pair operator; S8 and S9 hash-split their streams
    # across a second Pair operator each (P10, P11).
    for i in range(8):
        g.connect(f"S{i}", f"P{i}")
    g.connect("S8", "P8", routing="hash")
    g.connect("S8", "P10", routing="hash")
    g.connect("S9", "P9", routing="hash")
    g.connect("S9", "P11", routing="hash")
    # P -> M 1:1; each M -> all G (hash on phone-group key).
    for i in range(N_GMAP):
        g.connect(f"P{i}", f"M{i}")
        for j in range(N_GROUP):
            g.connect(f"M{i}", f"G{j}", routing="hash")
    for j in range(N_GROUP):
        g.connect(f"G{j}", f"A{j}")
        g.connect(f"A{j}", "K")

    return StreamApplication(
        name="tmi",
        graph=g,
        params={"n_minutes": n_minutes, "seed": seed, "probe_prefix": "A"},
    )
