"""Profiling pass: dynamic HAUs, per-period minima, and the smax threshold.

Implements §III-C2:

1. *Find dynamic HAUs* — observe each HAU's ``state_size()`` over a
   profiling window; HAUs whose minimum is less than half their average
   are dynamic.
2. *Rebuild the aggregated state size* of all dynamic HAUs from their
   reported turning points (piecewise-linear "zigzag polyline").
3. *Derive the threshold* — per checkpoint period, find the minimum of
   the aggregate series; ``smin``/``smax`` are the lowest and highest of
   those per-period minima; the relaxation factor
   ``alpha = (smax - smin) / smin`` is bounded below by 20% ("we do so by
   bounding the relaxation factor to a minimum of 20% relative to smin").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

MIN_RELAXATION = 0.20
DYNAMIC_RATIO = 0.5  # min < 0.5 * avg  =>  dynamic HAU
ZERO_FLOOR_FRACTION = 0.10  # smax floor as a fraction of the aggregate mean


def is_dynamic(sizes: Sequence[float], min_avg_bytes: float = 0.0) -> bool:
    """Classify one HAU from its observed state-size samples.

    ``min_avg_bytes`` filters out HAUs whose state is too small to be
    worth timing checkpoints around (a few-KB rolling window fluctuates
    relative to itself but contributes nothing to checkpoint size).
    """
    if not sizes:
        return False
    avg = sum(sizes) / len(sizes)
    if avg <= 0 or avg < min_avg_bytes:
        return False
    return min(sizes) < DYNAMIC_RATIO * avg


@dataclass
class ProfileResult:
    """Output of the profiling pass."""

    smax: float
    smin: float
    relaxation: float
    period_minima: list[tuple[float, float]]  # (time, aggregate size) per period
    dynamic_haus: list[str]


@dataclass
class StateProfile:
    """Accumulates per-HAU samples during profiling and derives the result.

    ``min_relaxation`` is the lower bound on the relaxation factor
    (paper default 20%); exposed for the A1 ablation bench.
    """

    checkpoint_period: float
    samples: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    min_relaxation: float = MIN_RELAXATION
    #: ignore HAUs whose average state is below this (not worth optimising)
    min_dynamic_bytes: float = 0.0
    #: drop this leading fraction of the observation window before
    #: classifying/aggregating — the cold-start ramp from empty state would
    #: otherwise masquerade as a deep minimum
    startup_skip: float = 0.0

    def _trimmed(self, hau_id: str) -> list[tuple[float, float]]:
        series = self.samples.get(hau_id, [])
        if not series or self.startup_skip <= 0:
            return series
        t0, t1 = series[0][0], series[-1][0]
        cut = t0 + self.startup_skip * (t1 - t0)
        return [(t, s) for (t, s) in series if t >= cut] or series

    def observe(self, hau_id: str, time: float, size: float) -> None:
        self.samples.setdefault(hau_id, []).append((time, size))

    def dynamic_haus(self) -> list[str]:
        out = []
        for hau_id in sorted(self.samples):
            series = self._trimmed(hau_id)
            if is_dynamic([s for (_t, s) in series], self.min_dynamic_bytes):
                out.append(hau_id)
        return out

    def aggregate_series(self, hau_ids: Sequence[str]) -> list[tuple[float, float]]:
        """Sum the chosen HAUs' (startup-trimmed) series on the union of
        their sample times."""
        trimmed = {h: self._trimmed(h) for h in hau_ids}
        times = sorted({t for series in trimmed.values() for (t, _s) in series})
        if not times:
            return []
        out = []
        for t in times:
            total = 0.0
            for h in hau_ids:
                total += _interp(trimmed[h], t)
            out.append((t, total))
        return out

    def result(self) -> ProfileResult:
        dyn = self.dynamic_haus()
        agg = self.aggregate_series(dyn)
        if not agg:
            return ProfileResult(
                smax=0.0, smin=0.0, relaxation=self.min_relaxation,
                period_minima=[], dynamic_haus=dyn,
            )
        t0 = agg[0][0]
        horizon = agg[-1][0]
        minima: list[tuple[float, float]] = []
        period_start = t0
        while period_start < horizon or not minima:
            period_end = period_start + self.checkpoint_period
            window = [(t, s) for (t, s) in agg if period_start <= t < period_end]
            if window:
                best = min(window, key=lambda ts: ts[1])
                minima.append(best)
            if period_end > horizon:
                break
            period_start = period_end
        if not minima:
            best = min(agg, key=lambda ts: ts[1])
            minima = [best]
        smin = min(s for (_t, s) in minima)
        smax = max(s for (_t, s) in minima)
        # Bound the relaxation factor to >= 20% relative to smin: it is
        # "better to conservatively increase smax a little".
        if smin > 0:
            alpha = (smax - smin) / smin
            if alpha < self.min_relaxation:
                smax = smin * (1.0 + self.min_relaxation)
                alpha = self.min_relaxation
        else:
            alpha = self.min_relaxation
        # Floor: when the state collapses to (near) zero at the batch
        # boundaries, the per-period minima — and hence smax — degenerate
        # to ~0 and alert mode could never engage.  Any state below a small
        # fraction of the aggregate average is unambiguously "minimal".
        mean_aggregate = sum(s for (_t, s) in agg) / len(agg)
        smax = max(smax, ZERO_FLOOR_FRACTION * mean_aggregate)
        return ProfileResult(
            smax=smax,
            smin=smin,
            relaxation=alpha if smin > 0 else self.min_relaxation,
            period_minima=minima,
            dynamic_haus=dyn,
        )


def _interp(series: list[tuple[float, float]], t: float) -> float:
    """Piecewise-linear interpolation with endpoint clamping."""
    if not series:
        return 0.0
    if t <= series[0][0]:
        return series[0][1]
    if t >= series[-1][0]:
        return series[-1][1]
    for (t0, s0), (t1, s1) in zip(series, series[1:]):
        if t0 <= t <= t1:
            if t1 == t0:
                return s1
            return s0 + (t - t0) / (t1 - t0) * (s1 - s0)
    return series[-1][1]
