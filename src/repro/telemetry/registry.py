"""The metric registry: counters, gauges and exact histograms.

A :class:`MetricRegistry` rides on the simulation
:class:`~repro.simulation.core.Environment` (``env.telemetry``) the same
way the tracer rides on ``env.trace``: the default is
:data:`NULL_REGISTRY`, whose ``enabled`` flag is False and whose factory
methods hand back a shared no-op metric — instrumented hot loops pay a
single attribute check when telemetry is off, and emission sites never
need ``if`` pyramids just to construct a metric handle.

Metrics are identified by ``(name, labels)``; labels are sorted
``(key, value)`` pairs so the identity (and every exported form) is
canonical.  Values are simulation-derived only, which makes the JSON
snapshot byte-identical across same-seed runs (the determinism contract
shared with :mod:`repro.observability`).

Naming convention (documented in DESIGN.md): ``ms_<subsystem>_<what>``
with a ``_total`` suffix for counters and a ``_seconds`` / ``_bytes``
unit suffix where applicable — directly exportable as Prometheus text.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from typing import Any

from repro.telemetry.quantile import nearest_rank_percentile

LabelPairs = tuple[tuple[str, str], ...]

DEFAULT_PERCENTILES = (0.5, 0.95, 0.99)


class Counter:
    """A monotonically increasing value (counts, bytes, seconds-of-work)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount!r})")
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "type": self.kind,
            "value": self.value,
        }


class Gauge:
    """A value that can go up and down (queue depth, state bytes)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "type": self.kind,
            "value": self.value,
        }


class Histogram:
    """An exact distribution: the observations, reduced when read.

    ``observe(value)`` is the bound ``append`` of an ``array('d')`` — one
    C call per observation, 8 bytes each, the array coercing ints to
    float and rejecting non-numbers.  ``count`` / ``sum`` / ``min`` /
    ``max`` / ``mean`` and the percentiles are computed from that one
    record at read time; every percentile is the nearest-rank order
    statistic (:func:`~repro.telemetry.quantile.nearest_rank_percentile`)
    — an actual observation, at every sample size.
    """

    __slots__ = ("name", "labels", "observe", "_values", "_ordered", "_percentiles")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        percentiles: tuple[float, ...] = DEFAULT_PERCENTILES,
    ):
        for p in percentiles:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"percentile fraction must be in [0, 1], got {p!r}")
        self.name = name
        self.labels = labels
        self._percentiles = tuple(sorted(percentiles))
        self._values = array("d")
        self._ordered: list[float] = []
        self.observe = self._values.append

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        # the left-to-right fold a running ``sum += value`` performs
        # (sum() compensates on 3.12+, fsum() always: other last digits)
        total = 0.0
        for value in self._values:
            total += value
        return total

    @property
    def min(self) -> float:
        return min(self._values, default=0.0)

    @property
    def max(self) -> float:
        return max(self._values, default=0.0)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _sorted(self) -> list[float]:
        """The observations in ascending order, cached by length: what
        arrived since the last read is appended and merged in (timsort
        on a sorted run plus a tail), so repeated reads of a growing
        histogram stay linear."""
        ordered = self._ordered
        if len(ordered) != len(self._values):
            ordered.extend(self._values[len(ordered):])
            ordered.sort()
        return ordered

    def percentile(self, p: float) -> float:
        if p not in self._percentiles:
            raise KeyError(f"histogram {self.name} does not track p={p!r}")
        return nearest_rank_percentile(self._sorted(), p)

    def quantiles(self) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` (tracked set)."""
        ordered = self._sorted()
        return {
            f"p{round(p * 100):d}": nearest_rank_percentile(ordered, p)
            for p in self._percentiles
        }

    def as_dict(self) -> dict[str, Any]:
        out = {
            "name": self.name,
            "labels": dict(self.labels),
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        out.update(self.quantiles())
        return out


Metric = Counter | Gauge | Histogram


class _NullMetric:
    """Accepts every mutation and does nothing; reads as empty."""

    __slots__ = ()

    name = ""
    labels: LabelPairs = ()
    value = 0.0
    count = 0
    sum = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def percentile(self, p: float) -> float:
        return 0.0

    def quantiles(self) -> dict[str, float]:
        return {}


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """The default no-op registry: ``enabled`` is False, and every
    factory returns the shared do-nothing metric, so instrumentation can
    be installed unconditionally and guarded by one attribute check in
    the loops that matter."""

    __slots__ = ()

    enabled = False

    def counter(self, name: str, **labels: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, **labels: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, **labels: str) -> _NullMetric:
        return _NULL_METRIC

    def metrics(self) -> list[Metric]:
        return []

    def __iter__(self) -> Iterator[Metric]:
        return iter(())

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()


def _label_pairs(labels: dict[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricRegistry:
    """Holds every metric of one run, keyed by (name, sorted labels).

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated calls
    with the same identity return the same object, so call sites do not
    need to cache handles for correctness (nor, since the registry
    remembers how each spelling of an identity canonicalises, for speed).
    """

    enabled = True

    def __init__(self):
        self._metrics: dict[tuple[str, LabelPairs], Metric] = {}
        # (name, labels as a caller wrote them) -> key into _metrics
        self._keys: dict[tuple, tuple[str, LabelPairs]] = {}

    def _key(self, name: str, labels: dict[str, str]) -> tuple[str, LabelPairs]:
        """The canonical identity, sorted and ``str()``-ed once per
        spelling — hits and misses alike, a key is not a metric."""
        spelling = (name, tuple(labels.items()))
        key = self._keys.get(spelling)
        if key is None:
            key = (name, _label_pairs(labels))
            # all-str spellings only: 1, 1.0 and True are one dict key
            # but three label values
            if all(type(v) is str for v in labels.values()):
                self._keys[spelling] = key
        return key

    def _get(self, cls, name: str, labels: dict[str, str], **kwargs) -> Metric:
        key = self._key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r}{dict(key[1])!r} already registered "
                f"as {metric.kind}, requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        percentiles: tuple[float, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        if percentiles is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, percentiles=percentiles)

    # -- queries -----------------------------------------------------------
    def metrics(self) -> list[Metric]:
        """All metrics, sorted by (name, labels) for stable export."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def get(self, name: str, **labels: str) -> Metric | None:
        """The metric if it exists — never creates (for tooling/tests)."""
        return self._metrics.get(self._key(name, labels))

    def select(self, prefix: str) -> list[Metric]:
        return [m for m in self.metrics() if m.name.startswith(prefix)]

    def __iter__(self) -> Iterator[Metric]:
        return iter(self.metrics())

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricRegistry {len(self._metrics)} metrics>"


RegistryLike = Any  # MetricRegistry | NullRegistry — same factory surface


def ensure_registry(registry: RegistryLike | None) -> RegistryLike:
    """Coerce ``None`` to the shared no-op registry."""
    return NULL_REGISTRY if registry is None else registry
