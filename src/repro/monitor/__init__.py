"""repro.monitor — the live monitoring plane.

Deterministic in-simulation observability: a per-tick counter window,
declarative SLOs with Google-SRE multi-window burn-rate alerting, and
per-HAU / per-rack health timelines.  Runs inside the simulation at a
priority below every workload event (so the determinism digest is
bit-identical with monitoring on or off) and replays offline from a
recorded trace (``python -m repro.monitor``) through the same tick.
"""

from repro.monitor.health import HEALTH_STATES, HealthTracker
from repro.monitor.plane import MonitorPlane
from repro.monitor.slo import (
    DEFAULT_BOUNDS,
    PER_HAU_KINDS,
    REGISTRY_KINDS,
    SLO,
    SLO_KINDS,
    BurnEvaluator,
    default_slos,
)
from repro.monitor.windows import CounterWindow

__all__ = [
    "DEFAULT_BOUNDS",
    "HEALTH_STATES",
    "PER_HAU_KINDS",
    "REGISTRY_KINDS",
    "SLO",
    "SLO_KINDS",
    "BurnEvaluator",
    "CounterWindow",
    "HealthTracker",
    "MonitorPlane",
    "default_slos",
]
