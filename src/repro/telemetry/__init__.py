"""Runtime telemetry: metric registry, per-HAU sampling, JSON snapshot.

Counterpart to :mod:`repro.observability` (structured *traces*): this
package carries aggregated *metrics* — counters, gauges and exact
percentile histograms — registered on ``env.telemetry`` and exported as
a deterministic JSON snapshot, which ``python -m repro.inspect show
snapshot.json`` reads back.
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
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
    ensure_registry,
)
from repro.telemetry.sampler import DEFAULT_INTERVAL, SERIES_METRICS, Sampler

__all__ = [
    "Counter",
    "DEFAULT_INTERVAL",
    "DEFAULT_PERCENTILES",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "SERIES_METRICS",
    "Sampler",
    "dumps_snapshot",
    "ensure_registry",
    "exact_percentile",
    "read_snapshot",
    "snapshot",
    "write_snapshot",
]
