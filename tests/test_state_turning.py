"""Tests for turning-point detection and ICR."""

import pytest

from repro.state import TurningPointDetector


def feed(detector, samples):
    out = []
    for t, s in samples:
        tp = detector.observe(t, s)
        if tp:
            out.append(tp)
    return out


def test_detects_maximum_with_icr():
    det = TurningPointDetector()
    # Fig. 10 shape: rise to 250 at t3, fall after
    tps = feed(det, [(0, 100), (1, 150), (2, 200), (3, 250), (4, 200), (5, 150)])
    assert len(tps) == 1
    tp = tps[0]
    assert tp.kind == "max"
    assert tp.time == 3
    assert tp.size == 250
    assert tp.icr == pytest.approx(-50.0)


def test_detects_minimum_with_positive_icr():
    det = TurningPointDetector()
    tps = feed(det, [(0, 250), (1, 150), (2, 100), (3, 150), (4, 200)])
    assert len(tps) == 1
    tp = tps[0]
    assert tp.kind == "min"
    assert tp.time == 2
    assert tp.size == 100
    assert tp.icr == pytest.approx(50.0)


def test_fig10_sequence_of_extrema():
    det = TurningPointDetector()
    # zigzag: 100 -> 250 -> 100 -> 250 -> 100
    series = [(0, 100), (3, 250), (6, 100), (9, 250), (12, 100), (13, 150)]
    tps = feed(det, series)
    kinds = [tp.kind for tp in tps]
    assert kinds == ["max", "min", "max", "min"]
    assert [tp.size for tp in tps] == [250, 100, 250, 100]


def test_monotonic_series_has_no_turning_points():
    det = TurningPointDetector()
    assert feed(det, [(i, i * 10) for i in range(10)]) == []


def test_flat_segments_with_tolerance():
    det = TurningPointDetector(tolerance=5.0)
    # noise of +-3 must not register direction flips
    tps = feed(det, [(0, 100), (1, 103), (2, 100), (3, 103), (4, 200), (5, 100)])
    assert len(tps) == 1
    assert tps[0].kind == "max"
    assert tps[0].size == 200


def test_out_of_order_samples_rejected():
    det = TurningPointDetector()
    det.observe(1.0, 10)
    with pytest.raises(ValueError):
        det.observe(0.5, 20)


def test_duplicate_time_sample_is_ignored():
    det = TurningPointDetector()
    det.observe(1.0, 10)
    assert det.observe(1.0, 50) is None


def test_reset_clears_history():
    det = TurningPointDetector()
    feed(det, [(0, 0), (1, 10)])
    det.reset()
    assert feed(det, [(2, 100), (3, 50)]) == []  # one segment, no flip yet

