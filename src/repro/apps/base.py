"""Shared application plumbing: sized payloads and app profiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class SizedPayload:
    """A payload with an explicit nominal size (DESIGN.md convention).

    The ``data`` inside is real (numpy arrays, dicts) but deliberately
    small; ``nominal_size`` is what the object *would* weigh in the
    paper's deployment (e.g. a 500 KB camera frame), and is what every
    byte-accounting path (state size, wire size, disk time) uses.
    """

    data: Any
    nominal_size: int

    def __post_init__(self):
        self.nominal_size = int(self.nominal_size)

    # A payload is a value: immutable once emitted, so a copy of whatever
    # holds it may share it (the contract is in repro.dsps.operator).
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


@dataclass(frozen=True)
class AppProfile:
    """Paper-reported characteristics used to validate the reproduction."""

    name: str
    hau_count: int
    state_min_mb: float  # Fig. 5 envelope
    state_max_mb: float
    state_avg_mb: float
    workload: str  # "low" | "medium" | "high"


MB = 1024 * 1024
