"""Windowed readers over sim-time: tumbling/sliding aggregation helpers.

The monitoring plane *reads* the cumulative state other subsystems
already maintain — counters and exact histogram percentiles in the
:class:`~repro.telemetry.registry.MetricRegistry` — and turns it into
per-window quantities: deltas and rates for counters (tumbling windows,
one per evaluation tick) and bounded sliding-window aggregates for
gauge-like samples.  Readers never write to the registry they read and
never touch simulation state, so a monitored run's physics (and its
determinism digest) are identical to an unmonitored one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class WindowSpec:
    """One window shape: ``slide == length`` is tumbling, smaller slides
    overlap.  Purely descriptive — evaluation cadence is the plane's
    tick period; the spec says how much history each evaluation sees."""

    name: str
    length: float
    slide: float

    def __post_init__(self) -> None:
        if not self.length > 0.0:
            raise ValueError(f"window length must be > 0, got {self.length!r}")
        if not 0.0 < self.slide <= self.length:
            raise ValueError(
                f"window slide must be in (0, length], got {self.slide!r}"
            )

    @property
    def tumbling(self) -> bool:
        return self.slide == self.length


class CounterWindow:
    """Tumbling-window view of a cumulative counter.

    ``advance(t, cumulative)`` returns the delta since the previous
    tick — the per-window increment — and remembers the new baseline.
    The first observation establishes the baseline (delta from 0.0:
    everything before monitoring started belongs to the first window).
    """

    __slots__ = ("last_t", "last_value")

    def __init__(self) -> None:
        self.last_t = 0.0
        self.last_value = 0.0

    def advance(self, t: float, cumulative: float) -> float:
        delta = cumulative - self.last_value
        self.last_t = t
        self.last_value = cumulative
        return delta


class SlidingWindow:
    """Bounded (sim-time, value) history with O(1) eviction.

    Holds samples for ``length`` seconds past ``now`` (half-open
    ``(now - length, now]`` like the burn-rate windows) and answers the
    aggregates the health/series exports need.
    """

    __slots__ = ("length", "_samples")

    def __init__(self, length: float):
        if not length > 0.0:
            raise ValueError(f"window length must be > 0, got {length!r}")
        self.length = length
        self._samples: deque[tuple[float, float]] = deque()

    def observe(self, t: float, value: float) -> None:
        self._samples.append((t, float(value)))

    def evict(self, now: float) -> None:
        cutoff = now - self.length
        samples = self._samples
        while samples and samples[0][0] <= cutoff:
            samples.popleft()

    def count(self) -> int:
        return len(self._samples)

    def total(self) -> float:
        return sum(v for _t, v in self._samples)

    def mean(self) -> float:
        n = len(self._samples)
        return self.total() / n if n else 0.0

    def maximum(self) -> float:
        return max((v for _t, v in self._samples), default=0.0)

    def last(self) -> float:
        return self._samples[-1][1] if self._samples else 0.0

    def rate(self) -> float:
        """Total per second over the window length (a windowed rate)."""
        return self.total() / self.length
