"""Throughput / latency collectors (§IV-A definitions).

"Throughput is defined as the number of tuples processed by the
application within a 10-minute time window, and latency is defined as
the average processing time of these tuples."  Instantaneous latency
(§IV-B) is the per-tuple processing time during a checkpoint — here, the
probe stage's arrival-time series, binnable around any instant.
"""

from __future__ import annotations

from repro.telemetry.quantile import exact_percentile

DEFAULT_LATENCY_PERCENTILES = (0.5, 0.95, 0.99)


def _percentile_dict(
    latencies: list[float], percentiles: tuple[float, ...]
) -> dict[str, float]:
    latencies = sorted(latencies)
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
        self.stage_samples: list[tuple[str, float, float]] = []

    # -- probe-stage metrics ---------------------------------------------------------
    def _probe(self, probe: str, start: float, end: float | None):
        """Samples of the HAUs whose id starts with ``probe``, processed
        in [start, end)."""
        for hau_id, created, done in self.stage_samples:
            if hau_id.startswith(probe) and done >= start and (end is None or done < end):
                yield created, done

    def stage_throughput(
        self, probe_prefix: str, start: float = 0.0, end: float | None = None
    ) -> int:
        return sum(1 for _ in self._probe(probe_prefix, start, end))

    def stage_latency(
        self, probe_prefix: str, start: float = 0.0, end: float | None = None
    ) -> float:
        lats = [done - created for created, done in self._probe(probe_prefix, start, end)]
        return sum(lats) / len(lats) if lats else 0.0

    def stage_latency_percentiles(
        self,
        probe_prefix: str,
        start: float = 0.0,
        end: float | None = None,
        percentiles: tuple[float, ...] = DEFAULT_LATENCY_PERCENTILES,
    ) -> dict[str, float]:
        """Exact latency percentiles at the probe stage, e.g.
        ``{"p50": ..., "p95": ..., "p99": ...}`` (0.0 for empty windows)."""
        lats = [done - created for created, done in self._probe(probe_prefix, start, end)]
        return _percentile_dict(lats, percentiles)

    def stage_binned_latency(
        self, probe_prefix: str, start: float, end: float, bin_width: float
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
