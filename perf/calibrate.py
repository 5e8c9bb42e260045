"""Host-speed calibration: a fixed amount of interpreter work, timed.

The sandbox this benchmark runs in shares its cores: the same Python
code runs 1.2-1.5x slower for seconds to minutes at a time, then
recovers, and raw host seconds of one commit spread by 15-25 % between
runs.  A pass therefore times a *calibration slice* before and after
each operation and divides the operation's host seconds by how much
slower than ``REFERENCE_S`` the two slices around it ran.  That removes
about half of the spread (measured here: quartile distance of ten runs
20 % raw, 8 % calibrated).

A slice is stdlib-only and shaped like the simulator in the two ways the
slow-downs depend on: an event loop (generators resumed from a
heap-ordered queue, dict traffic) for the interpreter, and attribute
updates scattered over more objects than the core's private caches hold
for the memory system.  It is not part of the program, so a change to
the program moves the operation and not the yardstick.
"""

from __future__ import annotations

import random
import time
from heapq import heappop, heappush

# Host seconds one slice takes on this benchmark's reference host while
# nothing disturbs it.  Only ratios between commits matter; the value
# just keeps calibrated seconds close to real ones.
REFERENCE_S = 0.056

LOOP_EVENTS = 60_000
SCATTER_CELLS = 100_000
SCATTER_UPDATES = 60_000


class _Cell:
    __slots__ = ("n", "t")

    def __init__(self):
        self.n = 0
        self.t = 0.0


def _ticker(i: int):
    t = 0.0
    step = 1.0 + (i % 7) * 0.125
    while True:
        t += step
        yield t


class Calibrator:
    """Owns the scattered cells (built once per process) and times slices."""

    def __init__(self):
        self._cells = [_Cell() for _ in range(SCATTER_CELLS)]
        self._order = list(range(SCATTER_CELLS))
        random.Random(7).shuffle(self._order)
        self._at = 0

    def slice_seconds(self) -> float:
        """Host seconds for one calibration slice."""
        tickers = [_ticker(i) for i in range(64)]
        heap: list[tuple[float, int]] = []
        for i, ticker in enumerate(tickers):
            heappush(heap, (next(ticker), i))
        counts: dict[int, int] = {}
        cells, order, at = self._cells, self._order, self._at
        started = time.perf_counter()
        for _ in range(LOOP_EVENTS):
            _t, i = heappop(heap)
            counts[i & 15] = counts.get(i & 15, 0) + 1
            heappush(heap, (next(tickers[i]), i))
        for j in range(at, at + SCATTER_UPDATES):
            cell = cells[order[j % SCATTER_CELLS]]
            cell.n += 1
            cell.t = cell.t * 0.5 + j
        elapsed = time.perf_counter() - started
        self._at = (at + SCATTER_UPDATES) % SCATTER_CELLS
        return elapsed
