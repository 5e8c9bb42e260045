"""Periodic per-HAU time-series sampling.

A :class:`Sampler` rides on a live
:class:`~repro.dsps.runtime.DSPSRuntime`: every ``interval`` simulated
seconds it snapshots the per-HAU quantities the paper's own adaptive
logic reasons about (§III-C) — input-queue depth, preservation-buffer
bytes, ``state_size()``, in-flight tuples on the out-channels, held-back
tuples behind checkpoint tokens, and the last checkpoint write duration
— into both the registry's gauges (latest value, for the Prometheus
export) and an in-memory time series (for the JSON snapshot and the
report's per-HAU tables).

Sampling is a costless observation (like
:class:`~repro.harness.experiment.StateTraceRecorder`): it spends no
simulated resources, so a sampled run measures identically to an
unsampled one.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.registry import RegistryLike, ensure_registry
from repro.vocabulary import SERIES_METRICS

DEFAULT_INTERVAL = 1.0

# Keep in sync with repro.core.preservation.PRESERVE_NS (imported lazily
# to avoid a package-level import cycle through dsps/simulation).
_PRESERVE_NS = "preserve"


class Sampler:
    """Samples per-HAU gauges on a fixed cadence into time series."""

    def __init__(
        self,
        runtime,
        registry: RegistryLike | None = None,
        interval: float = DEFAULT_INTERVAL,
    ):
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval!r}")
        self.runtime = runtime
        self.registry = ensure_registry(
            registry if registry is not None else runtime.env.telemetry
        )
        self.interval = float(interval)
        self.samples_taken = 0
        # metric name -> hau_id -> [(sim time, value), ...]
        self.series: dict[str, dict[str, list[tuple[float, float]]]] = {
            name: {} for name in SERIES_METRICS
        }
        # (metric, hau_id) -> registry gauge, so a recorded point does not
        # pay the registry's label-sorting get-or-create each time
        self._gauges: dict[tuple[str, str], Any] = {}
        runtime.env.process(self._run(), label="telemetry-sampler")

    # -- the sampling process ---------------------------------------------
    def _run(self):
        from repro.simulation.core import Interrupt  # deferred: import cycle

        env = self.runtime.env
        try:
            while True:
                yield env.timeout(self.interval)
                self.sample_once()
        except Interrupt:
            return

    def sample_once(self) -> None:
        """Take one snapshot of every live HAU (also usable manually)."""
        env = self.runtime.env
        now = env.now
        for hau_id in sorted(self.runtime.haus):
            hau = self.runtime.haus[hau_id]
            if not hau.node.alive:
                continue
            self._record(now, "ms_hau_inbox_depth", hau_id, float(len(hau.inbox)))
            self._record(now, "ms_hau_state_bytes", hau_id, float(hau.state_size()))
            inflight = sum(
                chan.in_flight + chan.pending
                for chan in hau.out_channels.values()
                if not chan.closed
            )
            self._record(now, "ms_hau_inflight_tuples", hau_id, float(inflight))
            holdback = sum(len(q) for q in hau.holdback.values())
            self._record(now, "ms_hau_holdback_tuples", hau_id, float(holdback))
            self._record(
                now, "ms_hau_preserve_bytes", hau_id, self._preserve_bytes(hau_id)
            )
            last_write = self.registry.get("ms_hau_ckpt_write_seconds", hau=hau_id)
            self._record(
                now,
                "ms_hau_ckpt_write_seconds",
                hau_id,
                float(last_write.value) if last_write is not None else 0.0,
            )
        self.samples_taken += 1

    def _record(self, t: float, metric: str, hau_id: str, value: float) -> None:
        self.series[metric].setdefault(hau_id, []).append((t, value))
        if metric != "ms_hau_ckpt_write_seconds":
            # write-duration gauges are owned by the checkpoint sites;
            # everything else the sampler keeps current itself.
            gauge = self._gauges.get((metric, hau_id))
            if gauge is None:
                # names come from SERIES_METRICS
                gauge = self.registry.gauge(metric, hau=hau_id)
                self._gauges[metric, hau_id] = gauge
            gauge.set(value)

    def _preserve_bytes(self, hau_id: str) -> float:
        """Retained bytes attributable to this HAU, whichever discipline.

        Baseline input preservation: the HAU's bounded local buffer
        (memory + spilled disk).  Meteor Shower source preservation: the
        HAU's preserved tuples on shared storage (sources only).
        """
        scheme = self.runtime.scheme
        preserver = getattr(scheme, "preserver", None)
        if preserver is None:
            return 0.0
        stores = getattr(preserver, "_stores", None)
        if stores is not None:  # InputPreserver
            store = stores.get(hau_id)
            if store is None:
                return 0.0
            return float(store.mem_bytes + store.disk_bytes)
        storage = getattr(preserver, "storage", None)
        if storage is not None:  # SourcePreserver
            objects = storage._objects.get((_PRESERVE_NS, hau_id), ())
            return float(sum(obj.size for obj in objects))
        return 0.0

    # -- export ------------------------------------------------------------
    def series_dict(self) -> dict[str, dict[str, list[list[float]]]]:
        """JSON-ready form: metric -> hau -> [[t, value], ...] (sorted)."""
        return {
            metric: {
                hau_id: [[t, v] for (t, v) in points]
                for hau_id, points in sorted(per_hau.items())
            }
            for metric, per_hau in sorted(self.series.items())
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Sampler every {self.interval}s, {self.samples_taken} samples>"
