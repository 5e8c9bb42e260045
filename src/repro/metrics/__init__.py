"""Measurement: throughput, latency, checkpoint and recovery breakdowns."""

from repro.metrics.collectors import MetricsHub
from repro.metrics.breakdown import (
    CheckpointBreakdown,
    CheckpointLog,
    RecoveryBreakdown,
    RunRecord,
)

__all__ = [
    "MetricsHub",
    "CheckpointBreakdown",
    "CheckpointLog",
    "RecoveryBreakdown",
    "RunRecord",
]
