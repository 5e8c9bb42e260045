"""Throughput / latency collectors (§IV-A definitions).

"Throughput is defined as the number of tuples processed by the
application within a 10-minute time window, and latency is defined as
the average processing time of these tuples."  Instantaneous latency
(§IV-B) is the per-tuple processing time during a checkpoint — here, the
probe stage's arrival-time series, binnable around any instant.
"""

from __future__ import annotations

import math

from repro.telemetry.quantile import exact_percentile

DEFAULT_LATENCY_PERCENTILES = (0.5, 0.95, 0.99)

Sample = tuple[str, float, float]  # (hau_id, created_at, processed_at)


def _mean_latency(window: list[Sample]) -> float:
    return sum(done - created for _h, created, done in window) / len(window) if window else 0.0


def _latency_percentiles(
    window: list[Sample], percentiles: tuple[float, ...]
) -> dict[str, float]:
    latencies = sorted(done - created for _h, created, done in window)
    return {
        f"p{round(p * 100):d}": exact_percentile(latencies, p) for p in percentiles
    }


class MetricsHub:
    """Collects per-tuple processing records and derives the paper's
    metrics from them at a probe stage: the HAUs whose id starts with a
    prefix (one HAU's id selects that HAU, and any HAU whose id extends it)."""

    def __init__(self):
        # per-stage processing records: (hau_id, created_at, processed_at),
        # appended by each HAU loop through the list's bound append.
        # Windowed applications (TMI's k-means, SignalGuru's episodes)
        # deliver to the sink only once per window, so per-tuple throughput
        # and latency are measured at a *probe stage* instead (§IV-A's
        # "tuples processed by the application").
        self.stage_samples: list[Sample] = []

    # -- probe-stage metrics ---------------------------------------------------------
    def _probe(self, probe: str, start: float, end: float | None) -> list[Sample]:
        """Samples of the HAUs whose id starts with ``probe``, processed
        in [start, end), in recording order."""
        return [
            sample for sample in self.stage_samples
            if sample[0].startswith(probe) and sample[2] >= start
            and (end is None or sample[2] < end)
        ]

    def stage_summary(
        self, probe_prefix: str, start: float, end: float | None
    ) -> tuple[int, float, dict[str, float]]:
        """Throughput, latency and the default latency percentiles over one
        window — the three reducers below, from one pass over the samples."""
        window = self._probe(probe_prefix, start, end)
        return (
            len(window),
            _mean_latency(window),
            _latency_percentiles(window, DEFAULT_LATENCY_PERCENTILES),
        )

    def stage_throughput(
        self, probe_prefix: str, start: float = 0.0, end: float | None = None
    ) -> int:
        return len(self._probe(probe_prefix, start, end))

    def stage_latency(
        self, probe_prefix: str, start: float = 0.0, end: float | None = None
    ) -> float:
        return _mean_latency(self._probe(probe_prefix, start, end))

    def stage_latency_percentiles(
        self,
        probe_prefix: str,
        start: float = 0.0,
        end: float | None = None,
        percentiles: tuple[float, ...] = DEFAULT_LATENCY_PERCENTILES,
    ) -> dict[str, float]:
        """Exact latency percentiles at the probe stage, e.g.
        ``{"p50": ..., "p95": ..., "p99": ...}`` (0.0 for empty windows)."""
        return _latency_percentiles(self._probe(probe_prefix, start, end), percentiles)

    def stage_binned_latency(
        self, probe_prefix: str, start: float, end: float, bin_width: float
    ) -> list[tuple[float, float]]:
        """Mean latency per ``bin_width`` bin of [start, end), one
        ``(bin centre, mean)`` point per bin (0.0 for an empty bin).  The
        bins must tile the window: one left over would drop its samples."""
        if not bin_width > 0:
            raise ValueError("bin_width must be positive")
        n_bins = round((end - start) / bin_width)
        if n_bins < 1 or not math.isclose(n_bins * bin_width, end - start):
            raise ValueError(f"bins of {bin_width!r} do not tile [{start!r}, {end!r})")
        last = n_bins - 1
        bins: dict[int, list[float]] = {}
        for _h, created, done in self._probe(probe_prefix, start, end):
            # a sample a rounding error short of `end` is the last bin's
            b = min(int((done - start) // bin_width), last)
            bins.setdefault(b, []).append(done - created)
        return [
            (
                start + (b + 0.5) * bin_width,
                (sum(bins[b]) / len(bins[b])) if bins.get(b) else 0.0,
            )
            for b in range(n_bins)
        ]
