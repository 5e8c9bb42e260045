"""Periodic per-HAU time-series sampling.

A :class:`Sampler` rides on a live
:class:`~repro.dsps.runtime.DSPSRuntime`: every ``DEFAULT_INTERVAL``
simulated seconds it snapshots the per-HAU quantities the paper's own
adaptive logic reasons about (§III-C) — input-queue depth, preservation-buffer
bytes, ``state_size()``, in-flight tuples on the out-channels, held-back
tuples behind checkpoint tokens, and the last checkpoint write duration
(read from the scheme's run record) — into an in-memory time series per
HAU.  A telemetry run's registry takes each series' last point as its
gauge, once the run is over (:mod:`repro.telemetry.fold`).

It is the run's one periodic state sampler: its ``ms_hau_state_bytes``
series is also what Fig. 5, Figs. 10/11 and the Oracle's minima search
read (``run_experiment(..., trace_state=True)`` starts it).  Sampling is
a costless observation: it spends no simulated resources, so a sampled
run measures identically to an unsampled one.
"""

from __future__ import annotations

from repro.vocabulary import SERIES_METRICS

DEFAULT_INTERVAL = 1.0


class Sampler:
    """Samples per-HAU quantities on a fixed cadence into time series.

    ``registry`` is accepted and ignored: ``perf/``'s staged run still
    passes one."""

    def __init__(self, runtime, registry=None):
        self.runtime = runtime
        self.samples_taken = 0
        # metric name -> hau_id -> [(sim time, value), ...]
        self.series: dict[str, dict[str, list[tuple[float, float]]]] = {
            name: {} for name in SERIES_METRICS
        }
        runtime.env.process(self._run(), label="telemetry-sampler")

    # -- the sampling process ---------------------------------------------
    def _run(self):
        from repro.simulation.core import Interrupt  # deferred: import cycle

        env = self.runtime.env
        try:
            while True:
                yield env.timeout(DEFAULT_INTERVAL)
                self.sample_once()
        except Interrupt:
            return

    def sample_once(self) -> None:
        """Take one snapshot of every live HAU (also usable manually)."""
        now = self.runtime.env.now
        last_commit = self.runtime.scheme.record.last_commit
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
            bd = last_commit.get(hau_id)
            write_s = bd.disk_io if bd is not None else None
            self._record(now, "ms_hau_ckpt_write_seconds", hau_id, float(write_s or 0.0))
        self.samples_taken += 1

    def _record(self, t: float, metric: str, hau_id: str, value: float) -> None:
        self.series[metric].setdefault(hau_id, []).append((t, value))

    def _preserve_bytes(self, hau_id: str) -> float:
        """Retained bytes attributable to this HAU, whichever discipline.

        Baseline input preservation: the HAU's bounded local buffer
        (memory + spilled disk).  Meteor Shower source preservation: the
        HAU's preserved tuples on shared storage (sources only).
        """
        preserver = getattr(self.runtime.scheme, "preserver", None)
        return 0.0 if preserver is None else float(preserver.retained_bytes(hau_id))

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
        return f"<Sampler every {DEFAULT_INTERVAL}s, {self.samples_taken} samples>"
