"""Turning-point detection and instantaneous change rate (ICR).

Each dynamic HAU "records its recent few state sizes and detects the
turning points (local extrema)" (§III-C2) and, in alert mode, reports
the turning point together with the ICR — the slope of the new segment
starting at the turning point (§III-C3: "the ICR of -50 means that
HAU1's state size will decrease by 50 per unit of time in the near
future").

The detector is streaming: feed ``observe(t, size)`` samples; it emits a
:class:`TurningPoint` when the series' direction flips.  The ICR at a
turning point is the slope *leaving* the point — in a live system this is
known "only shortly after" the point; the paper ignores that small lag
and so do we, by emitting the turning point when the next sample reveals
the new slope.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TurningPoint:
    """A local extremum of a state-size series."""

    time: float
    size: float
    icr: float  # slope leaving the point (bytes per second)
    kind: str  # "min" | "max"


def _direction(delta: float, tolerance: float) -> int:
    if delta > tolerance:
        return 1
    if delta < -tolerance:
        return -1
    return 0


class TurningPointDetector:
    """Streaming local-extrema detector with slope (ICR) reporting.

    ``tolerance`` suppresses jitter: size deltas within ±tolerance count
    as flat and do not flip the direction.
    """

    def __init__(self, tolerance: float = 0.0):
        self.tolerance = float(tolerance)
        self._prev: tuple[float, float] | None = None
        self._direction = 0  # -1 falling, +1 rising, 0 unknown/flat

    def observe(self, time: float, size: float) -> TurningPoint | None:
        """Feed one sample; returns a turning point if one is revealed."""
        if self._prev is None:
            self._prev = (time, size)
            return None
        prev_t, prev_s = self._prev
        if time < prev_t:
            raise ValueError("samples must be time-ordered")
        if time == prev_t:
            self._prev = (time, size)
            return None
        new_dir = _direction(size - prev_s, self.tolerance)
        result: TurningPoint | None = None
        if new_dir != 0 and self._direction != 0 and new_dir != self._direction:
            # the previous sample was an extremum; ICR is the slope leaving it
            icr = (size - prev_s) / (time - prev_t)
            kind = "max" if self._direction > 0 else "min"
            result = TurningPoint(time=prev_t, size=prev_s, icr=icr, kind=kind)
        if new_dir != 0:
            self._direction = new_dir
        self._prev = (time, size)
        return result

    def reset(self) -> None:
        self._prev = None
        self._direction = 0

