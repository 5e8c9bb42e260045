"""Bus Capacity Prediction (BCP) — Fig. 3, 55 HAUs.

"It predicts how crowded a bus will be based on the number of passengers
on the bus and at the next few bus stops."  Camera frames are dispatched
to people-counting operators; historical-image operators retain recent
frames per camera to disambiguate occlusions and discard them on bus
arrivals — the fluctuating state of Fig. 5b.  An on-vehicle infrared
sensor path predicts arrival times and alighting counts; the two sides
join into per-route crowdedness predictions.

Topology (55): 4 camera sources S0-3, 4 dispatchers D0-3, 16 counters
C0-15, 4 historical-image operators H0-3, 4 boarding predictors B0-3,
2 joins J0/J2, 4 sensor sources S4-7, 4 noise filters N0-3, 4 arrival
predictors A0-3, 4 alighting predictors L0-3, 2 groups G0-1, 2
crowdedness predictors P0-1, sink K.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.apps.base import AppProfile, SizedPayload
from repro.apps.kernels.svm import MODEL_CACHE_SIZE, LinearSVM
from repro.apps.kernels.vision import count_people, make_frame
from repro.dsps.graph import QueryGraph
from repro.dsps.operator import Emit, Operator, SinkOperator, SourceOperator
from repro.state.spec import StateHint

PROFILE = AppProfile(
    name="bcp", hau_count=55, state_min_mb=100.0, state_max_mb=700.0,
    state_avg_mb=400.0, workload="medium",
)

FRAME_SIZE = 200 * 1024  # compressed camera frame on the wire
HISTORY_FRAME_BASE = 300 * 1024  # decoded retained copy (scaled by state_scale)
SENSOR_SIZE = 8 * 1024

COST_CAM = 3e-9
COST_DISPATCH = 20e-9
COST_COUNT = 3000e-9  # people counting: the heavy image stage
COST_HISTORY = 600e-9
COST_BOARD = 60e-9
COST_JOIN = 30e-9
COST_SENSOR_PATH = 2e-6  # per byte on small sensor tuples
COST_PRED = 50e-9


class CameraSource(SourceOperator):
    """A bus-stop camera: frames with Poisson passenger counts; a bus
    arrives every ``bus_period`` seconds (staggered per stop), flagged in
    the frame payload — the data-driven signal H uses to clear history."""

    def __init__(self, seed: int, stop: int, count: int, interval: float,
                 bus_period: float = 50.0):
        super().__init__(name=f"S{stop}")
        self.seed = seed
        self.stop = stop
        self.count = count
        self.interval = interval
        self.bus_period = bus_period

    def generate(self):
        rng = np.random.default_rng(self.seed)
        # stagger bus arrivals across stops so the aggregate state
        # fluctuates rather than collapsing at once
        next_bus = self.bus_period * (0.3 + 0.25 * self.stop)
        clock = 0.0
        for i in range(self.count):
            clock += self.interval
            bus_now = clock >= next_bus
            if bus_now:
                next_bus += self.bus_period * rng.uniform(0.8, 1.2)
            people = int(rng.poisson(4))
            frame = make_frame(rng, people=people)
            payload = SizedPayload(
                data={
                    "stop": self.stop,
                    "frame": frame,
                    "true_count": people,
                    "bus_arrival": bool(bus_now),
                    "frame_no": i,
                },
                nominal_size=FRAME_SIZE,
            )
            yield (self.interval, Emit(payload=payload, size=FRAME_SIZE, key=(self.stop, i)))

    def processing_cost(self, tup):
        return COST_CAM * tup.size


class Dispatcher(Operator):
    """Routes a stop's frames across its four counters (hash on frame no)
    and forwards every frame to the stop's historical-image operator."""

    state_attrs = ("dispatched",)

    def __init__(self, idx: int):
        super().__init__(name=f"D{idx}")
        self.dispatched = 0

    def on_tuple(self, port, tup):
        self.dispatched += 1
        d = tup.payload.data
        return [
            Emit(payload=tup.payload, size=tup.size, port=0, key=d["frame_no"]),
            Emit(payload=tup.payload, size=tup.size, port=1, key=d["stop"]),
        ]

    def processing_cost(self, tup):
        return COST_DISPATCH * tup.size


class CounterOperator(Operator):
    """Counts people in a frame (real blob counting on the synthetic
    frame).  The heavy stage of the image path."""

    state_attrs = ("frames_counted",)

    def __init__(self, idx: int):
        super().__init__(name=f"C{idx}")
        self.frames_counted = 0

    def on_tuple(self, port, tup):
        d = tup.payload.data
        counted = count_people(d["frame"])
        self.frames_counted += 1
        out = SizedPayload(
            data={"stop": d["stop"], "count": counted, "frame_no": d["frame_no"],
                  "bus_arrival": d["bus_arrival"]},
            nominal_size=2048,
        )
        return [Emit(payload=out, size=2048, key=d["stop"])]

    def processing_cost(self, tup):
        return COST_COUNT * tup.size


class HistoricalImages(Operator):
    """Retains downsampled frames per camera; clears them on bus arrival.

    This is BCP's dominant, fluctuating state: "the image accumulation
    and removal cause the state size to fluctuate" (Fig. 5b)."""

    state_attrs = ("history", "clears")

    def __init__(self, idx: int, state_scale: float = 1.0):
        super().__init__(name=f"H{idx}")
        self.history: list = []
        self.clears = 0
        self.item_size = max(1024, int(HISTORY_FRAME_BASE * state_scale))
        self.state_hints = {"history": StateHint(element_size=self.item_size)}

    def on_tuple(self, port, tup):
        d = tup.payload.data
        if d["bus_arrival"]:
            self.history = []
            self.clears += 1
        if d["frame_no"] % 2 == 0:  # retain alternate (decoded) frames
            self.history.append(
                SizedPayload(data={"frame_no": d["frame_no"]}, nominal_size=self.item_size)
            )
        quality = min(1.0, len(self.history) / 10.0)  # more history, better
        out = SizedPayload(
            data={"stop": d["stop"], "quality": quality, "frame_no": d["frame_no"]},
            nominal_size=1024,
        )
        return [Emit(payload=out, size=1024, key=d["stop"])]

    def processing_cost(self, tup):
        return COST_HISTORY * tup.size


class BoardingPredictor(Operator):
    """Predicts boarding passengers from counts (port 0) refined by the
    historical-image quality signal (port 1)."""

    state_attrs = ("recent_counts", "last_quality")
    state_hints = {"recent_counts": StateHint(element_size=16)}

    def __init__(self, idx: int):
        super().__init__(name=f"B{idx}")
        self.recent_counts: list = []
        self.last_quality = 0.5

    def on_tuple(self, port, tup):
        d = tup.payload.data
        if port == 1:
            self.last_quality = d["quality"]
            return []
        self.recent_counts.append(d["count"])
        if len(self.recent_counts) > 20:
            self.recent_counts = self.recent_counts[-20:]
        smoothed = sum(self.recent_counts) / len(self.recent_counts)
        boarding = smoothed * (0.8 + 0.4 * self.last_quality)
        out = SizedPayload(
            data={"stop": d["stop"], "boarding": boarding, "frame_no": d["frame_no"]},
            nominal_size=512,
        )
        return [Emit(payload=out, size=512, key=d["stop"])]

    def processing_cost(self, tup):
        return COST_BOARD * tup.size


class JoinOperator(Operator):
    """Joins two stops' boarding estimates into a route-segment record."""

    state_attrs = ("latest",)

    def __init__(self, idx: int):
        super().__init__(name=f"J{idx}")
        self.latest: dict = {}

    def on_tuple(self, port, tup):
        d = tup.payload.data
        self.latest[port] = d["boarding"]
        total = sum(self.latest.values())
        out = SizedPayload(
            data={"segment_boarding": total, "stops_known": len(self.latest)},
            nominal_size=512,
        )
        return [Emit(payload=out, size=512, key=port)]

    def processing_cost(self, tup):
        return COST_JOIN * tup.size


class SensorSource(SourceOperator):
    """On-vehicle infrared sensor: small, fast tuples."""

    def __init__(self, seed: int, vehicle: int, count: int, interval: float):
        super().__init__(name=f"S{4 + vehicle}")
        self.seed = seed
        self.vehicle = vehicle
        self.count = count
        self.interval = interval

    def generate(self):
        rng = np.random.default_rng(self.seed)
        for i in range(self.count):
            payload = SizedPayload(
                data={
                    "vehicle": self.vehicle,
                    "beam_breaks": int(rng.poisson(2)),
                    "speed": float(rng.uniform(3, 15)),
                    "reading_no": i,
                },
                nominal_size=SENSOR_SIZE,
            )
            yield (self.interval, Emit(payload=payload, size=SENSOR_SIZE, key=self.vehicle))

    def processing_cost(self, tup):
        return COST_CAM * tup.size


class NoiseFilter(Operator):
    """Median-of-recent filter over the infrared readings."""

    state_attrs = ("window",)

    def __init__(self, idx: int):
        super().__init__(name=f"N{idx}")
        self.window: list = []

    def on_tuple(self, port, tup):
        d = tup.payload.data
        self.window.append(d["beam_breaks"])
        if len(self.window) > 5:
            self.window = self.window[-5:]
        filtered = sorted(self.window)[len(self.window) // 2]
        out = SizedPayload(
            data={"vehicle": d["vehicle"], "passengers_on": filtered, "speed": d["speed"]},
            nominal_size=SENSOR_SIZE,
        )
        return [Emit(payload=out, size=SENSOR_SIZE, key=d["vehicle"])]

    def processing_cost(self, tup):
        return COST_SENSOR_PATH * tup.size


class ArrivalPredictor(Operator):
    """Predicts bus arrival time from speed (running average model)."""

    state_attrs = ("speed_sum", "speed_n")

    def __init__(self, idx: int):
        super().__init__(name=f"A{idx}")
        self.speed_sum = 0.0
        self.speed_n = 0

    def on_tuple(self, port, tup):
        d = tup.payload.data
        self.speed_sum += d["speed"]
        self.speed_n += 1
        avg_speed = self.speed_sum / self.speed_n
        eta = 500.0 / max(avg_speed, 0.1)
        out = SizedPayload(
            data={"vehicle": d["vehicle"], "eta": eta,
                  "passengers_on": d["passengers_on"]},
            nominal_size=SENSOR_SIZE,
        )
        return [Emit(payload=out, size=SENSOR_SIZE, key=d["vehicle"])]

    def processing_cost(self, tup):
        return COST_SENSOR_PATH * tup.size


@lru_cache(maxsize=MODEL_CACHE_SIZE)
def alighting_model(seed: int) -> LinearSVM:
    """The alighting predictor's model for ``seed``, fitted once per
    process and shared read-only."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(100, 2))
    y = np.where(0.6 * X[:, 0] - 0.2 * X[:, 1] > 0, 1, -1)
    return LinearSVM(dim=2).fit(X, y).frozen()


class AlightingPredictor(Operator):
    """Predicts alighting passengers with a small linear model."""

    state_attrs = ("history",)

    def __init__(self, idx: int, seed: int):
        super().__init__(name=f"L{idx}")
        self.history: list = []
        self.model = alighting_model(seed)  # a function of the seed: not state

    def on_tuple(self, port, tup):
        d = tup.payload.data
        features = np.array([[d["passengers_on"], d["eta"] / 100.0]])
        will_alight = int(self.model.predict(features)[0] > 0)
        self.history.append(will_alight)
        if len(self.history) > 50:
            self.history = self.history[-50:]
        out = SizedPayload(
            data={"vehicle": d["vehicle"], "alighting": sum(self.history[-10:]),
                  "eta": d["eta"]},
            nominal_size=512,
        )
        return [Emit(payload=out, size=512, key=d["vehicle"])]

    def processing_cost(self, tup):
        return COST_SENSOR_PATH * tup.size


class GroupOperator(Operator):
    state_attrs = ("merged",)

    def __init__(self, idx: int):
        super().__init__(name=f"G{idx}")
        self.merged = 0

    def on_tuple(self, port, tup):
        self.merged += 1
        return [Emit(payload=tup.payload, size=tup.size, key=port)]

    def processing_cost(self, tup):
        return COST_JOIN * tup.size


class CrowdednessPredictor(Operator):
    """Final prediction: boarding - alighting, rolling per segment."""

    state_attrs = ("segment_load",)

    def __init__(self, idx: int):
        super().__init__(name=f"P{idx}")
        self.segment_load = 0.0

    def on_tuple(self, port, tup):
        d = tup.payload.data
        if "segment_boarding" in d:
            self.segment_load += 0.1 * d["segment_boarding"]
        else:
            self.segment_load -= 0.05 * d.get("alighting", 0)
        self.segment_load = max(0.0, min(100.0, self.segment_load))
        out = SizedPayload(data={"crowdedness": self.segment_load}, nominal_size=256)
        return [Emit(payload=out, size=256, key=0)]

    def processing_cost(self, tup):
        return COST_PRED * tup.size


def build(
    seed: int = 0,
    frames_per_camera: int = 100000,
    camera_interval: float = 0.12,
    sensor_interval: float = 0.5,
    bus_period: float = 50.0,
    state_scale: float = 1.0,
) -> "StreamApplication":
    from repro.dsps.application import StreamApplication

    g = QueryGraph()
    for i in range(4):
        g.add_hau(
            f"S{i}",
            (lambda i=i: [CameraSource(seed * 1000 + i, i, frames_per_camera,
                                       camera_interval, bus_period)]),
            is_source=True,
        )
    for i in range(4):
        g.add_hau(f"D{i}", lambda i=i: [Dispatcher(i)])
    for i in range(16):
        g.add_hau(f"C{i}", lambda i=i: [CounterOperator(i)])
    for i in range(4):
        g.add_hau(f"H{i}", lambda i=i: [HistoricalImages(i, state_scale)])
    for i in range(4):
        g.add_hau(f"B{i}", lambda i=i: [BoardingPredictor(i)])
    for i in (0, 2):
        g.add_hau(f"J{i}", lambda i=i: [JoinOperator(i)])
    for i in range(4):
        g.add_hau(
            f"S{4 + i}",
            (lambda i=i: [SensorSource(seed * 1000 + 100 + i, i, frames_per_camera,
                                       sensor_interval)]),
            is_source=True,
        )
    for i in range(4):
        g.add_hau(f"N{i}", lambda i=i: [NoiseFilter(i)])
    for i in range(4):
        g.add_hau(f"A{i}", lambda i=i: [ArrivalPredictor(i)])
    for i in range(4):
        g.add_hau(f"L{i}", lambda i=i: [AlightingPredictor(i, seed * 1000 + 200 + i)])
    for i in range(2):
        g.add_hau(f"G{i}", lambda i=i: [GroupOperator(i)])
    for i in range(2):
        g.add_hau(f"P{i}", lambda i=i: [CrowdednessPredictor(i)])
    g.add_hau("K", lambda: [SinkOperator(name="K")], is_sink=True)

    # camera path
    for i in range(4):
        g.connect(f"S{i}", f"D{i}")
        for j in range(4):
            g.connect(f"D{i}", f"C{4 * i + j}", src_port=0, routing="hash")
        g.connect(f"D{i}", f"H{i}", src_port=1)
        for j in range(4):
            g.connect(f"C{4 * i + j}", f"B{i}", dst_port=0)
        g.connect(f"H{i}", f"B{i}", dst_port=1)
    g.connect("B0", "J0", dst_port=0)
    g.connect("B1", "J0", dst_port=1)
    g.connect("B2", "J2", dst_port=0)
    g.connect("B3", "J2", dst_port=1)
    # sensor path
    for i in range(4):
        g.connect(f"S{4 + i}", f"N{i}")
        g.connect(f"N{i}", f"A{i}")
        g.connect(f"A{i}", f"L{i}")
    # convergence
    g.connect("J0", "G0", dst_port=0)
    g.connect("L0", "G0", dst_port=1)
    g.connect("L1", "G0", dst_port=1)
    g.connect("J2", "G1", dst_port=0)
    g.connect("L2", "G1", dst_port=1)
    g.connect("L3", "G1", dst_port=1)
    g.connect("G0", "P0")
    g.connect("G1", "P1")
    g.connect("P0", "K", dst_port=0)
    g.connect("P1", "K", dst_port=0)

    return StreamApplication(name="bcp", graph=g, params={"seed": seed, "probe_prefix": "B"})
