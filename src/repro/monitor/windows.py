"""Windowed readers over sim-time: the per-tick counter delta.

The monitoring plane *reads* the cumulative state other subsystems
already maintain — counters in the
:class:`~repro.telemetry.registry.MetricRegistry` — and turns it into
per-window quantities: deltas and rates for counters (tumbling windows,
one per evaluation tick).  Readers never write to the registry they
read and never touch simulation state, so a monitored run's physics
(and its determinism digest) are identical to an unmonitored one.
"""

from __future__ import annotations


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
