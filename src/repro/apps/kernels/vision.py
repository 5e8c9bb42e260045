"""Synthetic-image kernels for BCP and SignalGuru.

A "frame" is a small numpy intensity grid with geometrically embedded
blobs (people, traffic lights).  The kernels do real array work —
thresholding, connected-component counting, colour/shape masks, frame
differencing — on data whose statistics are controlled by the workload
generators, while the *nominal* frame size carries the paper-scale byte
accounting (see DESIGN.md).
"""

from __future__ import annotations

import functools

import numpy as np

FRAME_SHAPE = (24, 24)
PERSON_INTENSITY = 200.0
LIGHT_INTENSITY = {"red": 80.0, "yellow": 120.0, "green": 160.0}
BACKGROUND_NOISE = 10.0


@functools.lru_cache(maxsize=16)
def _lattice(shape: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """Blob anchors on a 4-pixel lattice, so blobs never merge (keeps
    count_people exact)."""
    h, w = shape
    return tuple((r, c) for r in range(1, h - 2, 4) for c in range(1, w - 2, 4))


def make_frame(
    rng: np.random.Generator,
    people: int = 0,
    light: str | None = None,
    shape: tuple[int, int] = FRAME_SHAPE,
) -> np.ndarray:
    """Render a synthetic frame with ``people`` 2x2 blobs and optionally a
    traffic light patch of the given colour."""
    frame = rng.uniform(0.0, BACKGROUND_NOISE, size=shape)
    cells = _lattice(shape)
    order = rng.permutation(len(cells))
    for idx in order[: max(people, 0)].tolist():
        r, c = cells[idx]
        frame[r : r + 2, c : c + 2] = PERSON_INTENSITY
    if light is not None:
        w = shape[1]
        frame[0:2, w - 3 : w - 1] = LIGHT_INTENSITY[light]
    return frame


def count_people(frame: np.ndarray, threshold: float = 150.0) -> int:
    """Count connected bright blobs (4-connectivity flood fill)."""
    # people blobs are 200 and a green light is 160 > threshold, so the
    # second bound masks the traffic-light patch out explicitly
    mask = (frame > threshold) & (frame >= PERSON_INTENSITY - 1.0)
    w = mask.shape[1]
    # flood-fill over the set of bright cells (flat indices), removing
    # each as it is reached; an off-grid neighbour is simply not in it
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


def color_filter(frame: np.ndarray) -> str | None:
    """Detect which traffic-light colour (if any) is present."""
    patch = frame[0:2, -3:-1]
    mean = float(patch.mean())
    best, best_err = None, 15.0
    for colour, intensity in LIGHT_INTENSITY.items():
        err = abs(mean - intensity)
        if err < best_err:
            best, best_err = colour, err
    return best


def shape_filter(frame: np.ndarray, colour: str | None) -> bool:
    """Verify the candidate light patch has the expected 2x2 shape."""
    if colour is None:
        return False
    intensity = LIGHT_INTENSITY[colour]
    patch = frame[0:2, -3:-1]
    return bool(np.all(np.abs(patch - intensity) < 10.0))


def frame_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute difference — the motion-filter primitive."""
    return float(np.abs(a.astype(float) - b.astype(float)).mean())
