"""repro.monitor — the monitoring plane.

Deterministic observability over a run: per-tick tuple counts,
declarative SLOs with Google-SRE multi-window burn-rate alerting, and
per-HAU / per-rack health timelines.  Ticks once a run is over, over
its trace and stage samples (so the determinism digest is bit-identical
with monitoring on or off), and replays a recorded trace (``python -m
repro.monitor``) through the same tick.
"""

from repro.monitor.health import HEALTH_STATES, HealthTracker
from repro.monitor.plane import MonitorPlane
from repro.monitor.slo import (
    DEFAULT_BOUNDS,
    PER_HAU_KINDS,
    SLO,
    SLO_KINDS,
    BurnEvaluator,
    default_slos,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "HEALTH_STATES",
    "PER_HAU_KINDS",
    "SLO",
    "SLO_KINDS",
    "BurnEvaluator",
    "HealthTracker",
    "MonitorPlane",
    "default_slos",
]
