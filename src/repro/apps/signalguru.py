"""SignalGuru — Fig. 4, 55 HAUs.

"It predicts the transition time of a traffic light at an intersection
and advises drivers on the optimal speed ... SignalGuru leverages
windshield-mounted iPhones to take pictures of an intersection ...  The
motion filtering operators preserve all pictures taken by an iPhone at
a specific intersection, until the vehicle carrying the iPhone device
leaves the intersection (usually 10-40 seconds)."

Topology (55): 4 iPhone frame sources S0-3, 4 dispatchers D0-3, 12
colour filters C0-11, 12 shape filters A0-11, 12 motion filters M0-11
(the dominant, bursty state of Fig. 5c), 4 voting operators V0-3, 4
groups G0-3, 2 SVM predictors P0-1, sink K.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.apps.base import AppProfile, SizedPayload
from repro.apps.kernels.svm import MODEL_CACHE_SIZE, LinearSVM
from repro.apps.kernels.vision import color_filter, make_frame, shape_filter
from repro.dsps.graph import QueryGraph
from repro.dsps.operator import Emit, Operator, SinkOperator, SourceOperator
from repro.state.spec import StateHint

PROFILE = AppProfile(
    name="signalguru", hau_count=55, state_min_mb=200.0, state_max_mb=2048.0,
    state_avg_mb=1024.0, workload="high",
)

FRAME_SIZE = 300 * 1024  # compressed iPhone frame on the wire
RETAINED_FRAME_BASE = 1536 * 1024  # decoded frame retained by motion filters
LIGHT_CYCLE = ("red", "green", "yellow")

COST_SRC = 3e-9
COST_DISPATCH = 20e-9
COST_COLOR = 500e-9
COST_SHAPE = 500e-9
COST_MOTION = 1500e-9  # the bottleneck stage
COST_VOTE = 40e-9
COST_GROUP = 30e-9
COST_PRED = 60e-9


class PhoneSource(SourceOperator):
    """iPhones at one intersection: frames tagged with a vehicle-presence
    episode (10-40 s), driving the motion filters' bursty retention."""

    def __init__(self, seed: int, intersection: int, count: int, interval: float):
        super().__init__(name=f"S{intersection}")
        self.seed = seed
        self.intersection = intersection
        self.count = count
        self.interval = interval

    def generate(self):
        rng = np.random.default_rng(self.seed)
        clock = 0.0
        episode_end = 0.0
        episode_id = -1
        pending_gap = 0.0
        phase_len = float(rng.uniform(20, 40))
        for i in range(self.count):
            delay = self.interval + pending_gap
            pending_gap = 0.0
            clock += delay
            if clock >= episode_end:
                # The next vehicle arrives after an inter-vehicle gap with
                # no phone at the intersection: no frames flow and the
                # motion filters' retained state drains — the deep minima
                # application-aware checkpointing hunts for (Fig. 5c).
                episode_id += 1
                dwell = float(rng.uniform(10, 40))  # "usually 10~40 seconds"
                pending_gap = float(rng.uniform(5, 20))
                episode_end = clock + dwell
            light = LIGHT_CYCLE[int(clock / phase_len) % 3]
            payload = SizedPayload(
                data={
                    "intersection": self.intersection,
                    "frame": make_frame(rng, people=0, light=light),
                    "episode": episode_id,
                    "vehicle_leaves": bool(clock + self.interval >= episode_end),
                    "true_light": light,
                    "frame_no": i,
                },
                nominal_size=FRAME_SIZE,
            )
            yield (delay, Emit(payload=payload, size=FRAME_SIZE,
                               key=(self.intersection, i)))

    def processing_cost(self, tup):
        return COST_SRC * tup.size


class Dispatcher(Operator):
    state_attrs = ("dispatched",)

    def __init__(self, idx: int):
        super().__init__(name=f"D{idx}")
        self.dispatched = 0

    def on_tuple(self, port, tup):
        self.dispatched += 1
        return [Emit(payload=tup.payload, size=tup.size,
                     key=tup.payload.data["frame_no"])]

    def processing_cost(self, tup):
        return COST_DISPATCH * tup.size


class ColorFilter(Operator):
    """Detects the traffic-light colour in a frame (real kernel)."""

    state_attrs = ("frames_seen",)

    def __init__(self, idx: int):
        super().__init__(name=f"C{idx}")
        self.frames_seen = 0

    def on_tuple(self, port, tup):
        d = tup.payload.data
        self.frames_seen += 1
        colour = color_filter(d["frame"])
        out = SizedPayload(data={**d, "colour": colour}, nominal_size=FRAME_SIZE)
        return [Emit(payload=out, size=FRAME_SIZE, key=d["intersection"])]

    def processing_cost(self, tup):
        return COST_COLOR * tup.size


class ShapeFilter(Operator):
    """Verifies the light's geometry; drops frames with no light."""

    state_attrs = ("rejected",)

    def __init__(self, idx: int):
        super().__init__(name=f"A{idx}")
        self.rejected = 0

    def on_tuple(self, port, tup):
        d = tup.payload.data
        if not shape_filter(d["frame"], d["colour"]):
            self.rejected += 1
            return []
        return [Emit(payload=tup.payload, size=tup.size, key=d["intersection"])]

    def processing_cost(self, tup):
        return COST_SHAPE * tup.size


class MotionFilter(Operator):
    """Preserves frames while the vehicle is at the intersection, then
    analyses the episode when the vehicle leaves.  The retained frames
    are SignalGuru's dominant state (Fig. 5c: 200 MB - 2 GB)."""

    state_attrs = ("retained", "episodes_done", "current_episode")

    def __init__(self, idx: int, state_scale: float = 1.0):
        super().__init__(name=f"M{idx}")
        self.retained: list = []
        self.episodes_done = 0
        self.current_episode = -1
        self.item_size = max(1024, int(RETAINED_FRAME_BASE * state_scale))
        self.state_hints = {"retained": StateHint(element_size=self.item_size)}

    def on_tuple(self, port, tup):
        d = tup.payload.data
        out = []
        # A new episode id or an explicit leaves-flag means the previous
        # vehicle has left the intersection: analyse and discard its frames.
        # (Frames of one episode are hash-spread over three motion filters;
        # the episode-id change is the signal every filter observes.)
        if self.retained and (
            d["episode"] != self.current_episode or d["vehicle_leaves"]
        ):
            out.append(self._flush_episode(d["intersection"]))
        self.current_episode = d["episode"]
        self.retained.append(
            SizedPayload(data={"colour": d["colour"], "frame_no": d["frame_no"],
                               "episode": d["episode"]},
                         nominal_size=self.item_size)
        )
        return out

    def _flush_episode(self, intersection: int) -> Emit:
        colours = [r.data["colour"] for r in self.retained if r.data["colour"]]
        transitions = sum(1 for a, b in zip(colours, colours[1:]) if a != b)
        n = len(self.retained)
        episode = self.retained[-1].data["episode"]
        self.retained = []
        self.episodes_done += 1
        out = SizedPayload(
            data={"intersection": intersection, "transitions": transitions,
                  "episode_frames": n, "episode": episode,
                  "last_colour": colours[-1] if colours else None},
            nominal_size=4096,
        )
        return Emit(payload=out, size=4096, key=intersection)

    def processing_cost(self, tup):
        return COST_MOTION * tup.size


class VotingOperator(Operator):
    """Selects the majority estimate across the intersection's phones."""

    state_attrs = ("ballots",)

    def __init__(self, idx: int):
        super().__init__(name=f"V{idx}")
        self.ballots: list = []

    def on_tuple(self, port, tup):
        d = tup.payload.data
        self.ballots.append(d["transitions"])
        if len(self.ballots) < 3:
            return []
        votes = sorted(self.ballots)
        winner = votes[len(votes) // 2]
        self.ballots = []
        out = SizedPayload(
            data={"intersection": d["intersection"], "transitions": winner},
            nominal_size=1024,
        )
        return [Emit(payload=out, size=1024, key=d["intersection"])]

    def processing_cost(self, tup):
        return COST_VOTE * tup.size


class GroupOperator(Operator):
    state_attrs = ("forwarded",)

    def __init__(self, idx: int):
        super().__init__(name=f"G{idx}")
        self.forwarded = 0

    def on_tuple(self, port, tup):
        self.forwarded += 1
        return [Emit(payload=tup.payload, size=tup.size, key=self.forwarded)]

    def processing_cost(self, tup):
        return COST_GROUP * tup.size


@lru_cache(maxsize=MODEL_CACHE_SIZE)
def flip_model(seed: int) -> LinearSVM:
    """The SVM predictor's model for ``seed``, fitted once per process and
    shared read-only."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(120, 2))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1, -1)
    return LinearSVM(dim=2).fit(X, y).frozen()


class SVMPredictor(Operator):
    """Predicts whether the light flips within the advisory horizon."""

    state_attrs = ("predictions",)

    def __init__(self, idx: int, seed: int):
        super().__init__(name=f"P{idx}")
        self.predictions = 0
        self.model = flip_model(seed)

    def on_tuple(self, port, tup):
        d = tup.payload.data
        features = np.array([[d["transitions"], 1.0]])
        flip_soon = int(self.model.predict(features)[0] > 0)
        self.predictions += 1
        out = SizedPayload(
            data={"intersection": d["intersection"], "flip_soon": flip_soon},
            nominal_size=256,
        )
        return [Emit(payload=out, size=256, key=0)]

    def processing_cost(self, tup):
        return COST_PRED * tup.size


def build(
    seed: int = 0,
    frames_per_phone: int = 100000,
    frame_interval: float = 0.07,
    state_scale: float = 1.0,
) -> "StreamApplication":
    from repro.dsps.application import StreamApplication

    g = QueryGraph()
    for i in range(4):
        g.add_hau(
            f"S{i}",
            (lambda i=i: [PhoneSource(seed * 1000 + i, i, frames_per_phone, frame_interval)]),
            is_source=True,
        )
    for i in range(4):
        g.add_hau(f"D{i}", lambda i=i: [Dispatcher(i)])
    for i in range(12):
        g.add_hau(f"C{i}", lambda i=i: [ColorFilter(i)])
        g.add_hau(f"A{i}", lambda i=i: [ShapeFilter(i)])
        g.add_hau(f"M{i}", lambda i=i: [MotionFilter(i, state_scale)])
    for i in range(4):
        g.add_hau(f"V{i}", lambda i=i: [VotingOperator(i)])
        g.add_hau(f"G{i}", lambda i=i: [GroupOperator(i)])
    for i in range(2):
        g.add_hau(f"P{i}", lambda i=i: [SVMPredictor(i, seed * 1000 + 500 + i)])
    g.add_hau("K", lambda: [SinkOperator(name="K")], is_sink=True)

    for i in range(4):
        g.connect(f"S{i}", f"D{i}")
        for j in range(3):
            g.connect(f"D{i}", f"C{3 * i + j}", routing="hash")
    for i in range(12):
        g.connect(f"C{i}", f"A{i}")
        g.connect(f"A{i}", f"M{i}")
    for i in range(4):
        for j in range(3):
            g.connect(f"M{3 * i + j}", f"V{i}", dst_port=0)
        g.connect(f"V{i}", f"G{i}")
    g.connect("G0", "P0", dst_port=0)
    g.connect("G1", "P0", dst_port=1)
    g.connect("G2", "P1", dst_port=0)
    g.connect("G3", "P1", dst_port=1)
    g.connect("P0", "K", dst_port=0)
    g.connect("P1", "K", dst_port=0)

    return StreamApplication(name="signalguru", graph=g, params={"seed": seed, "probe_prefix": "M"})
