"""Runtime telemetry: metric registry, per-HAU sampling, JSON snapshot.

Counterpart to :mod:`repro.observability` (structured *traces*): this
package carries aggregated *metrics* — counters, gauges and exact
percentile histograms — folded from a finished run's records
(:mod:`repro.telemetry.fold`) and exported as a deterministic JSON
snapshot, which ``python -m repro.inspect show snapshot.json`` reads
back.
"""

from repro.telemetry.export import (
    dumps_snapshot,
    read_snapshot,
    snapshot,
    write_snapshot,
)
from repro.telemetry.quantile import exact_percentile
from repro.telemetry.registry import (
    DEFAULT_PERCENTILES,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.telemetry.sampler import DEFAULT_INTERVAL, SERIES_METRICS, Sampler

__all__ = [
    "Counter",
    "DEFAULT_INTERVAL",
    "DEFAULT_PERCENTILES",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "SERIES_METRICS",
    "Sampler",
    "dumps_snapshot",
    "exact_percentile",
    "read_snapshot",
    "snapshot",
    "write_snapshot",
]
