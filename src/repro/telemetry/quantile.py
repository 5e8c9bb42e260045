"""Exact percentiles of a sorted sample (stdlib only).

``nearest_rank_percentile`` is the rule every
:class:`~repro.telemetry.registry.Histogram` percentile follows at every
sample size: the ``ceil(q * n)``-th order statistic — an actual observed
value, never an interpolation past the sample (with a 3-sample monitor
window, p99 is the 3rd order statistic, its maximum).

``exact_percentile`` is the linear-interpolation variant the MetricsHub's
percentile methods report (``latency_percentiles`` in sweep payloads and
digests).
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def exact_percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending-sorted sample.

    ``q`` is a fraction in [0, 1].  Returns 0.0 for an empty sample
    (matching the collectors' convention for empty windows).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {q!r}")
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if n == 1:
        return float(sorted_values[0])
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_values[lo]) * (1.0 - frac) + float(sorted_values[hi]) * frac


def nearest_rank_percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank order statistic of an ascending-sorted sample.

    The smallest observed value v such that at least ``q`` of the sample
    is <= v (``ceil(q * n)``-th order statistic; 0.0 for an empty
    sample).  Always returns an actual observation — the right answer
    for tail quantiles of tiny samples, where interpolation invents
    values nobody measured.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {q!r}")
    n = len(sorted_values)
    if n == 0:
        return 0.0
    rank = max(1, math.ceil(q * n))
    return float(sorted_values[rank - 1])
