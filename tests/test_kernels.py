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


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_svm_rejects_a_zero_or_nan_label(bad):
    with pytest.raises(ValueError):
        LinearSVM(dim=1).fit(np.zeros((3, 1)), np.array([1.0, bad, -1.0]))


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


# --- one-pass kernels vs the array code they replaced -------------------------------
#
# The apps' per-tuple kernels were rewritten to do less work per call:
# a raster-scan union-find for the flood fill, Python-float comparisons
# for the 2x2 light patch, ``sum / size`` for its mean, one stable sort
# for the GoogleMap split (``_ref_gmap_split`` above), the body of
# ``np.linalg.norm`` for the Pair displacement.  The array forms they
# replaced are kept here as the references.


def _ref_color_filter(frame):
    patch = frame[0:2, -3:-1]
    mean = float(patch.mean())
    best, best_err = None, 15.0
    for colour, intensity in vision.LIGHT_INTENSITY.items():
        err = abs(mean - intensity)
        if err < best_err:
            best, best_err = colour, err
    return best


def _ref_shape_filter(frame, colour):
    if colour is None:
        return False
    intensity = vision.LIGHT_INTENSITY[colour]
    patch = frame[0:2, -3:-1]
    return bool(np.all(np.abs(patch - intensity) < 10.0))


def _ref_flood_count(frame, threshold=150.0):
    """The set-based flood fill ``count_people`` ran before the scan."""
    mask = (frame > threshold) & (frame >= vision.PERSON_INTENSITY - 1.0)
    w = mask.shape[1]
    live = set(np.flatnonzero(mask).tolist())
    count = 0
    while live:
        count += 1
        stack = [live.pop()]
        while stack:
            p = stack.pop()
            c = p % w
            for q in (p + w, p - w, p + 1 if c + 1 < w else -1, p - 1 if c else -1):
                if q in live:
                    live.discard(q)
                    stack.append(q)
    return count


_COLOURS = (None, "red", "yellow", "green")


def test_frame_kernels_match_their_references_on_generated_frames():
    for seed in range(300):
        new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(40):
            people, light = (seed + i) % 12, _COLOURS[i % 4]
            frame = make_frame(new_rng, people=people, light=light)
            want = _ref_make_frame(ref_rng, people=people, light=light)
            _assert_same_array(frame, want)
            assert count_people(frame) == _ref_flood_count(want) == people
            assert color_filter(frame) == _ref_color_filter(want) == light
            for colour in _COLOURS:
                assert shape_filter(frame, colour) == _ref_shape_filter(want, colour)
        assert _rng_position(new_rng) == _rng_position(ref_rng)


@pytest.mark.parametrize("threshold", [150.0, 198.9, 199.0, 199.5, 220.0, np.nan])
def test_count_people_merges_touching_blobs_as_the_flood_fill_does(threshold):
    rng = np.random.default_rng(int(np.nan_to_num(threshold) * 10))
    levels = np.array([0.0, 199.0, 199.5, 200.0, 230.0])
    for i in range(150):
        shape = (1 + i % 13, 1 + i % 17) if i % 3 else vision.FRAME_SHAPE
        density = 0.2 + 0.6 * rng.random()  # dense: blobs touch, fork and rejoin
        frame = np.where(rng.random(shape) < density, rng.choice(levels[1:], size=shape), 0.0)
        assert count_people(frame, threshold) == _ref_count_people(frame, threshold)
    # shapes whose arms meet only at the bottom: one merge each, late
    u = np.zeros((5, 7))
    u[0:4, 0] = u[0:4, 6] = u[4, :] = 230.0
    w = np.zeros((4, 9))
    w[0:3, ::4] = w[3, :] = 230.0
    stairs = np.zeros((6, 6))
    stairs[np.arange(6), 5 - np.arange(6)] = 230.0  # diagonal: 4-connectivity splits it
    stairs[np.arange(5), 4 - np.arange(5)] = 230.0  # ... and the second one rejoins it
    for frame, blobs in ((u, 1), (w, 1), (stairs, 1), (np.eye(6) * 230.0, 6)):
        want = _ref_count_people(frame, threshold)
        assert count_people(frame, threshold) == want == (blobs if threshold == threshold else 0)


def _light_frame(values):
    frame = np.zeros(vision.FRAME_SHAPE)
    frame[0:2, -3:-1] = np.asarray(values, dtype=float).reshape(2, 2)
    return frame


@pytest.mark.parametrize(
    "values, colour, shape_ok",
    [
        ([80.0, 80.0, 80.0, 90.0], "red", False),  # |v - 80| exactly 10: rejected
        ([80.0, 80.0, 70.0, 80.0], "red", False),
        ([89.99, 70.01, 80.0, 80.0], "red", True),
        ([95.0] * 4, None, None),  # mean exactly 15 from red: no colour
        ([105.0] * 4, None, None),  # exactly 15 from yellow, 25 from red
        ([95.0, 95.0, 95.0, 94.99], "red", False),  # just under 15 from red
        ([65.0, 65.0, 65.0, 65.000001], "red", False),
        ([100.0, 100.0, 100.0, 100.0], None, None),  # 20 from both neighbours
        ([160.0, 160.0, 160.0, np.nan], None, None),
        ([np.nan] * 4, None, None),
    ],
)
def test_light_patch_kernels_at_their_boundaries(values, colour, shape_ok):
    frame = _light_frame(values)
    assert color_filter(frame) == _ref_color_filter(frame) == colour
    for c in _COLOURS:
        assert shape_filter(frame, c) == _ref_shape_filter(frame, c)
    if colour is not None:
        assert shape_filter(frame, colour) is shape_ok
    nan_patch = _light_frame([np.nan] * 4)
    assert not any(shape_filter(nan_patch, c) for c in _COLOURS)


def test_pair_displacement_matches_linalg_norm():
    op = tmi.PairOperator(0)
    batches = list(_ref_position_batches(3, 50))
    for i, batch in enumerate(batches):
        data = {"station": 1, "batch_no": i, **batch}
        tup = DataTuple(payload=SizedPayload(data, tmi.BATCH_SIZE), size=tmi.BATCH_SIZE)
        (emit,) = op.on_tuple(0, tup)
        got = emit.payload.data["displacement"]
        if i == 0:
            _assert_same_array(got, np.zeros(tmi.PHONES_PER_BATCH))
        else:
            want = np.linalg.norm(batch["positions"] - batches[i - 1]["positions"], axis=1)
            _assert_same_array(got, want)
