"""Tests for the application kernels (k-means, vision, SVM)."""

import numpy as np
import pytest

from repro.apps import tmi
from repro.apps.base import SizedPayload
from repro.apps.kernels import vision
from repro.apps.kernels import (
    LinearSVM,
    assign_clusters,
    color_filter,
    count_people,
    frame_difference,
    kmeans,
    make_frame,
    shape_filter,
)
from repro.dsps.tuples import DataTuple


# --- k-means ---------------------------------------------------------------------


def test_kmeans_separates_obvious_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.1, size=(50, 2))
    b = rng.normal(10.0, 0.1, size=(50, 2))
    pts = np.vstack([a, b])
    centroids, labels = kmeans(pts, k=2)
    assert centroids.shape == (2, 2)
    # the two halves get distinct labels, consistently
    assert len(set(labels[:50])) == 1
    assert len(set(labels[50:])) == 1
    assert labels[0] != labels[-1]


def test_kmeans_deterministic_given_input():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(100, 3))
    c1, l1 = kmeans(pts, k=4)
    c2, l2 = kmeans(pts.copy(), k=4)
    assert np.array_equal(c1, c2)
    assert np.array_equal(l1, l2)


def test_kmeans_k_capped_at_n():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    centroids, labels = kmeans(pts, k=4)
    assert centroids.shape[0] == 2


def test_kmeans_rejects_empty():
    with pytest.raises(ValueError):
        kmeans(np.empty((0, 2)))


def test_assign_clusters_nearest():
    centroids = np.array([[0.0, 0.0], [10.0, 10.0]])
    pts = np.array([[1.0, 1.0], [9.0, 9.0]])
    assert assign_clusters(pts, centroids).tolist() == [0, 1]


# --- vision --------------------------------------------------------------------------


def test_count_people_exact():
    rng = np.random.default_rng(2)
    for n in (0, 1, 3, 7):
        frame = make_frame(rng, people=n)
        assert count_people(frame) == n


def test_color_filter_detects_each_colour():
    rng = np.random.default_rng(3)
    for colour in ("red", "yellow", "green"):
        frame = make_frame(rng, people=2, light=colour)
        assert color_filter(frame) == colour


def test_color_filter_none_when_absent():
    rng = np.random.default_rng(4)
    frame = make_frame(rng, people=2, light=None)
    assert color_filter(frame) is None


def test_shape_filter_confirms_light():
    rng = np.random.default_rng(5)
    frame = make_frame(rng, light="green")
    assert shape_filter(frame, "green")
    assert not shape_filter(frame, None)
    assert not shape_filter(frame, "red")


def test_frame_difference_zero_for_identical():
    rng = np.random.default_rng(6)
    frame = make_frame(rng, people=1)
    assert frame_difference(frame, frame) == 0.0
    other = make_frame(rng, people=5)
    assert frame_difference(frame, other) > 0.0


# --- SVM ----------------------------------------------------------------------------


def test_svm_learns_linearly_separable():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(200, 2))
    y = np.where(X[:, 0] + X[:, 1] > 0, 1, -1)
    svm = LinearSVM(dim=2).fit(X, y, epochs=100)
    assert svm.accuracy(X, y) > 0.95


def test_svm_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(100, 3))
    y = np.where(X[:, 0] > 0, 1, -1)
    a = LinearSVM(dim=3).fit(X, y)
    b = LinearSVM(dim=3).fit(X, y)
    assert np.array_equal(a.w, b.w)
    assert a.b == b.b


def test_svm_rejects_bad_labels():
    with pytest.raises(ValueError):
        LinearSVM(dim=1).fit(np.zeros((2, 1)), np.array([0, 2]))


# --- rewritten kernels vs the loops they replaced ----------------------------------
#
# The four functions below are verbatim copies of the interpreter loops
# the apps ran before they were vectorised; the references stay here so
# the rewrites are held to bit-equal outputs (same values, dtype, shape
# and memory order) and an untouched rng stream.

_N_INPUTS = 200


def _ref_make_frame(rng, people=0, light=None, shape=vision.FRAME_SHAPE):
    frame = rng.uniform(0.0, vision.BACKGROUND_NOISE, size=shape)
    h, w = shape
    taken = set()
    placed = 0
    cells = [(r, c) for r in range(1, h - 2, 4) for c in range(1, w - 2, 4)]
    order = rng.permutation(len(cells))
    for idx in order:
        if placed >= people:
            break
        r, c = cells[idx]
        if (r, c) in taken:
            continue
        frame[r : r + 2, c : c + 2] = vision.PERSON_INTENSITY
        taken.add((r, c))
        placed += 1
    if light is not None:
        frame[0:2, w - 3 : w - 1] = vision.LIGHT_INTENSITY[light]
    return frame


def _ref_count_people(frame, threshold=150.0):
    mask = frame > threshold
    mask &= frame >= vision.PERSON_INTENSITY - 1.0
    visited = np.zeros_like(mask, dtype=bool)
    h, w = mask.shape
    count = 0
    for r in range(h):
        for c in range(w):
            if mask[r, c] and not visited[r, c]:
                count += 1
                stack = [(r, c)]
                visited[r, c] = True
                while stack:
                    rr, cc = stack.pop()
                    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        nr, nc = rr + dr, cc + dc
                        if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not visited[nr, nc]:
                            visited[nr, nc] = True
                            stack.append((nr, nc))
    return count


def _ref_position_batches(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        modes = rng.integers(0, 4, size=tmi.PHONES_PER_BATCH)
        speeds = np.array([tmi.MODE_SPEEDS[int(m)] for m in modes])
        speeds = speeds * rng.uniform(0.7, 1.3, size=tmi.PHONES_PER_BATCH)
        phones = rng.integers(0, 10_000, size=tmi.PHONES_PER_BATCH)
        positions = rng.uniform(0, 1000, size=(tmi.PHONES_PER_BATCH, 2))
        yield {"phones": phones, "positions": positions, "speeds": speeds}


def _ref_gmap_split(data):
    groups = data["phones"] % tmi.N_GROUP
    out = []
    for g in range(tmi.N_GROUP):
        mask = groups == g
        if not mask.any():
            continue
        features = np.column_stack(
            [data["speeds"][mask], data["displacement"][mask]]
        )
        out.append((g, data["phones"][mask], features))
    return out


def _assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert np.array_equal(got, want)


def _rng_position(rng):
    return rng.bit_generator.state["state"]


def test_make_frame_matches_the_loop_and_leaves_the_rng_where_it_did():
    lights = (None, "red", "yellow", "green")
    for seed in range(_N_INPUTS):
        people = seed % 41 - 2  # below zero and above the 36 lattice cells too
        light = lights[seed % 4]
        new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        _assert_same_array(
            make_frame(new_rng, people=people, light=light),
            _ref_make_frame(ref_rng, people=people, light=light),
        )
        assert _rng_position(new_rng) == _rng_position(ref_rng)
    small = (12, 16)  # another shape: the hoisted lattice is per shape
    _assert_same_array(
        make_frame(np.random.default_rng(7), people=3, light="red", shape=small),
        _ref_make_frame(np.random.default_rng(7), people=3, light="red", shape=small),
    )


def test_count_people_matches_the_loop():
    rng = np.random.default_rng(99)
    for i in range(_N_INPUTS):
        if i % 2:
            # arbitrary bright cells: merged, L-shaped and edge-touching blobs
            frame = rng.uniform(0.0, 10.0, size=vision.FRAME_SHAPE)
            frame[rng.random(vision.FRAME_SHAPE) < 0.05 * (1 + i % 8)] = 200.0
        else:
            frame = make_frame(rng, people=i % 37, light=("green", None)[i % 4 // 2])
        assert count_people(frame) == _ref_count_people(frame)
    assert count_people(np.full(vision.FRAME_SHAPE, 200.0)) == 1


def test_position_source_batches_match_the_loop():
    source = tmi.PositionSource(seed=5, station=3, count=_N_INPUTS, interval=0.5)
    n = 0
    for (_delay, emit), want in zip(source.generate(), _ref_position_batches(5, _N_INPUTS)):
        for field in ("phones", "positions", "speeds"):
            _assert_same_array(emit.payload.data[field], want[field])
        n += 1
    assert n == _N_INPUTS


def test_google_map_split_matches_the_loop():
    op = tmi.GoogleMapOperator(0)
    rng = np.random.default_rng(11)
    for i in range(_N_INPUTS):
        n = 1 + i % tmi.PHONES_PER_BATCH  # few phones: some groups stay empty
        data = {
            "phones": rng.integers(0, 10_000, size=n),
            "speeds": rng.uniform(0.0, 20.0, size=n),
            "displacement": rng.uniform(0.0, 50.0, size=n),
        }
        tup = DataTuple(payload=SizedPayload(data, tmi.BATCH_SIZE), size=tmi.BATCH_SIZE)
        emits = op.on_tuple(0, tup)
        want = _ref_gmap_split(data)
        assert [e.key for e in emits] == [g for g, _p, _f in want]
        for emit, (g, phones, features) in zip(emits, want):
            assert emit.payload.data["group"] == g
            _assert_same_array(emit.payload.data["phones"], phones)
            _assert_same_array(emit.payload.data["features"], features)
