"""Throughput / latency collectors (§IV-A definitions).

"Throughput is defined as the number of tuples processed by the
application within a 10-minute time window, and latency is defined as
the average processing time of these tuples."  Instantaneous latency
(§IV-B) is the per-tuple processing time during a checkpoint — here, the
full arrival-time series at the sinks, binnable around any instant.
"""

from __future__ import annotations

from repro.telemetry.quantile import exact_percentile

DEFAULT_LATENCY_PERCENTILES = (0.5, 0.95, 0.99)

# Which HAUs a reducer reads: an id prefix (the app's probe stage), or a set of ids.
Probe = str | frozenset[str]


def _percentile_dict(
    latencies: list[float], percentiles: tuple[float, ...]
) -> dict[str, float]:
    latencies = sorted(latencies)
    return {
        f"p{round(p * 100):d}": exact_percentile(latencies, p) for p in percentiles
    }


class MetricsHub:
    """Collects per-tuple processing records and derives the paper's
    metrics from them, at a probe stage or at the sinks."""

    def __init__(self):
        # per-stage processing records: (hau_id, created_at, processed_at),
        # appended by each HAU loop through the list's bound append.
        # Windowed applications (TMI's k-means, SignalGuru's episodes)
        # deliver to the sink only once per window, so per-tuple throughput
        # and latency are measured at a *probe stage* instead (§IV-A's
        # "tuples processed by the application").
        self.stage_samples: list[tuple[str, float, float]] = []
        # The application's sink HAUs; the runtime names them once.
        self.sinks: frozenset[str] = frozenset()

    # -- probe-stage metrics ---------------------------------------------------------
    def _probe(self, probe: Probe, start: float, end: float | None):
        """Samples of the probed HAUs processed in [start, end)."""
        if isinstance(probe, str):
            samples = (s for s in self.stage_samples if s[0].startswith(probe))
        else:
            samples = (s for s in self.stage_samples if s[0] in probe)
        for _hau_id, created, done in samples:
            if done >= start and (end is None or done < end):
                yield created, done

    def stage_throughput(
        self, probe_prefix: Probe, start: float = 0.0, end: float | None = None
    ) -> int:
        return sum(1 for _ in self._probe(probe_prefix, start, end))

    def stage_latency(
        self, probe_prefix: Probe, start: float = 0.0, end: float | None = None
    ) -> float:
        lats = [done - created for created, done in self._probe(probe_prefix, start, end)]
        return sum(lats) / len(lats) if lats else 0.0

    def stage_latency_percentiles(
        self,
        probe_prefix: Probe,
        start: float = 0.0,
        end: float | None = None,
        percentiles: tuple[float, ...] = DEFAULT_LATENCY_PERCENTILES,
    ) -> dict[str, float]:
        """Exact latency percentiles at the probe stage, e.g.
        ``{"p50": ..., "p95": ..., "p99": ...}`` (0.0 for empty windows)."""
        lats = [done - created for created, done in self._probe(probe_prefix, start, end)]
        return _percentile_dict(lats, percentiles)

    def stage_latency_series(
        self, probe_prefix: Probe, start: float = 0.0, end: float | None = None
    ) -> list[tuple[float, float]]:
        return [(done, done - created) for created, done in self._probe(probe_prefix, start, end)]

    def stage_binned_latency(
        self, probe_prefix: Probe, start: float, end: float, bin_width: float
    ) -> list[tuple[float, float]]:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        bins: dict[int, list[float]] = {}
        for created, done in self._probe(probe_prefix, start, end):
            bins.setdefault(int((done - start) // bin_width), []).append(done - created)
        n_bins = int((end - start) / bin_width)
        return [
            (
                start + (b + 0.5) * bin_width,
                (sum(bins[b]) / len(bins[b])) if bins.get(b) else 0.0,
            )
            for b in range(n_bins)
        ]

    # -- the same, restricted to the sinks -------------------------------------------
    def throughput(self, start: float = 0.0, end: float | None = None) -> int:
        """Tuples delivered to sinks in [start, end)."""
        return self.stage_throughput(self.sinks, start, end)

    def average_latency(self, start: float = 0.0, end: float | None = None) -> float:
        return self.stage_latency(self.sinks, start, end)

    def latency_percentiles(
        self,
        start: float = 0.0,
        end: float | None = None,
        percentiles: tuple[float, ...] = DEFAULT_LATENCY_PERCENTILES,
    ) -> dict[str, float]:
        """Exact sink-latency percentiles over [start, end)."""
        return self.stage_latency_percentiles(self.sinks, start, end, percentiles)

    def latency_series(
        self, start: float = 0.0, end: float | None = None
    ) -> list[tuple[float, float]]:
        """(arrival time, latency) pairs — instantaneous latency raw data."""
        return self.stage_latency_series(self.sinks, start, end)

    def binned_latency(
        self, start: float, end: float, bin_width: float
    ) -> list[tuple[float, float]]:
        """Average latency per time bin — the Fig. 15 series."""
        return self.stage_binned_latency(self.sinks, start, end, bin_width)

    def peak_binned_latency(self, start: float, end: float, bin_width: float) -> float:
        series = [v for (_t, v) in self.binned_latency(start, end, bin_width) if v > 0]
        return max(series) if series else 0.0
