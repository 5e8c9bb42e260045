"""Declarative SLOs and Google-SRE-style multi-window burn-rate alerting.

An :class:`SLO` names a service-level objective over one sample stream
(p99 end-to-end latency, per-HAU checkpoint write duration, recovery
time, per-HAU checkpoint staleness), a ``bound`` a sample must stay at
or under to count as *good*, and an ``objective`` — the error budget,
the fraction of samples allowed to violate the bound.

Burn rate is the budget-spend speed: ``bad_fraction(window) /
objective``.  Burn 1.0 means the budget is being spent exactly as fast
as it accrues; burn 10 means ten times too fast.  A
:class:`BurnEvaluator` tracks one SLO for one subject over a *fast* and
a *slow* sliding window (the multi-window pattern from the Google SRE
workbook): an alert **fires** only when both windows burn at or above
``burn_threshold`` (the slow window proves it is not a blip, the fast
window proves it is still happening) and **resolves** when the fast
window drops back below the threshold.

Everything here is pure arithmetic over (sim-time, good/bad) samples —
same samples in, same fire/resolve instants out, which is what makes
alert logs byte-deterministic and replayable from a trace file.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

from repro.vocabulary import SLOS

# The SLO vocabulary, in evaluation order (scenario ``monitor.slos``
# mappings, ``expect.alerts`` and the ``ms_alerts_*`` labels use these).
SLO_KINDS = tuple(SLOS)

# SLO kinds evaluated per HAU (alert subjects are HAU ids); the rest
# aggregate over the whole run (subject "").
PER_HAU_KINDS = frozenset({"checkpoint-staleness"})


@dataclass(frozen=True)
class SLO:
    """One objective: samples of ``kind`` must stay <= ``bound``.

    ``objective`` is the allowed bad fraction (the error budget);
    ``fast_window``/``slow_window`` are sliding-window lengths in sim
    seconds; ``burn_threshold`` is the budget-spend multiple at which
    the alert fires.
    """

    kind: str
    bound: float
    objective: float = 0.1
    fast_window: float = 10.0
    slow_window: float = 30.0
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; choose from {SLO_KINDS}")
        if not (self.bound > 0.0 and math.isfinite(self.bound)):
            raise ValueError(f"SLO bound must be finite and > 0, got {self.bound!r}")
        if not self.objective > 0.0:
            raise ValueError(f"SLO objective must be > 0, got {self.objective!r}")
        if not 0.0 < self.fast_window <= self.slow_window:
            raise ValueError(
                f"need 0 < fast_window <= slow_window, got "
                f"{self.fast_window!r}/{self.slow_window!r}"
            )


# Default bounds (seconds).  A scenario's ``monitor.slos`` mapping
# overrides per kind.
DEFAULT_BOUNDS = dict((kind, bound) for kind, (bound, _signal) in SLOS.items())


def default_slos(
    bounds: dict[str, float] | None = None,
    fast_window: float = 10.0,
    slow_window: float = 30.0,
) -> tuple[SLO, ...]:
    """The standard SLO set, with per-kind bound overrides.

    Deterministic order (= SLO_KINDS order), so alert evaluation — and
    therefore the alert log — never depends on dict iteration order.
    """
    overrides = dict(bounds or {})
    unknown = sorted(set(overrides) - set(SLO_KINDS))
    if unknown:
        raise ValueError(f"unknown SLO kind(s) in bounds: {', '.join(unknown)}")
    slos = []
    for kind in SLO_KINDS:
        slo = SLO(
            kind=kind,
            bound=DEFAULT_BOUNDS[kind],
            fast_window=fast_window,
            slow_window=slow_window,
        )
        if kind in overrides:
            slo = replace(slo, bound=float(overrides[kind]))
        slos.append(slo)
    return tuple(slos)


class BurnEvaluator:
    """Burn-rate state for one (SLO, subject) pair.

    Samples arrive as ``observe(t, good)``; ``evaluate(now)`` evicts
    everything older than the slow window, computes both burn rates and
    returns ``"fire"`` / ``"resolve"`` / ``None`` as the alert state
    machine dictates.  Windows are half-open ``(now - length, now]`` so
    a sample ages out exactly one window-length after it arrived.
    """

    __slots__ = ("slo", "subject", "active", "burn_fast", "burn_slow", "_samples")

    def __init__(self, slo: SLO, subject: str = ""):
        self.slo = slo
        self.subject = subject
        self.active = False
        self.burn_fast = 0.0
        self.burn_slow = 0.0
        self._samples: deque[tuple[float, bool]] = deque()

    def observe(self, t: float, good: bool) -> None:
        self._samples.append((t, good))

    def _burn(self, now: float, window: float) -> float:
        cutoff = now - window
        good = bad = 0
        for t, ok in self._samples:
            if t > cutoff:
                if ok:
                    good += 1
                else:
                    bad += 1
        total = good + bad
        if total == 0:
            return 0.0  # no data burns no budget
        return (bad / total) / self.slo.objective

    def evaluate(self, now: float) -> str | None:
        """Advance the alert state machine to ``now``."""
        cutoff = now - self.slo.slow_window
        samples = self._samples
        while samples and samples[0][0] <= cutoff:
            samples.popleft()
        self.burn_fast = self._burn(now, self.slo.fast_window)
        self.burn_slow = self._burn(now, self.slo.slow_window)
        threshold = self.slo.burn_threshold
        if not self.active:
            if self.burn_fast >= threshold and self.burn_slow >= threshold:
                self.active = True
                return "fire"
            return None
        if self.burn_fast < threshold:
            self.active = False
            return "resolve"
        return None
