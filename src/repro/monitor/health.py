"""Per-HAU and per-rack health timelines.

A four-state machine per entity, fed by the same deterministic inputs
the alert engine sees — SLO samples, alert fire/resolve, and the
failure/recovery trace kinds::

    healthy --(bad SLO sample)--------------> degraded
    healthy/degraded --(alert fires, node/rack failure)--> alerting
    alerting --(recovery.hau.start)---------> recovering
    recovering --(recovery.hau done, hau.start restart)--> healthy
    degraded --(good sample again)----------> healthy
    alerting --(alert resolves, no recovery needed)------> healthy

Rack states are rolled up from member HAUs (worst member wins:
alerting > recovering > degraded > healthy) and re-derived after every
HAU transition, so the rack timeline interleaves deterministically with
the HAU timeline that caused it.

The exported timeline is a list of ``{t, entity, from, to, reason}``
rows in emission order — byte-identical across same-seed runs, and the
shape ``repro.inspect`` bundles under ``alerts.json``.
"""

from __future__ import annotations

from typing import Any

from repro.vocabulary import HEALTH

HEALTH_STATES = tuple(HEALTH)

# Worst-member-wins ordering for the rack rollup.
_SEVERITY = {"healthy": 0, "degraded": 1, "recovering": 2, "alerting": 3}


class HealthTracker:
    """Tracks entity health and records every transition.

    ``racks`` maps HAU id -> rack id (from the runtime's placement);
    without it (offline trace replay) only HAU timelines are produced.
    Unknown HAUs materialise as ``healthy`` on first mention, so the
    tracker works from a bare trace with no topology preamble.
    """

    def __init__(self, racks: dict[str, str] | None = None, nodes: dict[str, str] | None = None):
        self._racks = dict(racks or {})  # hau -> rack
        self._nodes = dict(nodes or {})  # hau -> node
        self._state: dict[str, str] = {}  # hau -> state
        self._rack_state: dict[str, str] = {}  # rack -> state
        self.timeline: list[dict[str, Any]] = []

    # -- transitions ---------------------------------------------------------
    def _set(self, t: float, hau: str, to: str, reason: str) -> None:
        frm = self._state.get(hau, "healthy")
        if frm == to:
            return
        self._state[hau] = to
        self.timeline.append(
            {"t": t, "entity": f"hau:{hau}", "from": frm, "to": to, "reason": reason}
        )
        self._roll_up(t, hau, reason)

    def _roll_up(self, t: float, hau: str, reason: str) -> None:
        rack = self._racks.get(hau)
        if rack is None:
            return
        members = [h for h, r in self._racks.items() if r == rack]
        worst = "healthy"
        for member in members:
            state = self._state.get(member, "healthy")
            if _SEVERITY[state] > _SEVERITY[worst]:
                worst = state
        frm = self._rack_state.get(rack, "healthy")
        if frm == worst:
            return
        self._rack_state[rack] = worst
        self.timeline.append(
            {"t": t, "entity": f"rack:{rack}", "from": frm, "to": worst, "reason": reason}
        )

    # -- inputs --------------------------------------------------------------
    def learn_placement(self, hau: str, node: str, rack: str | None = None) -> None:
        """Record (or update, after a restart elsewhere) where an HAU
        lives, so failure.inject events can be matched to it.  Offline
        replay learns placement from ``hau.start``/``recovery.hau``
        events; live runs pass the maps up front."""
        if node:
            self._nodes[hau] = node
        if rack:
            self._racks[hau] = rack

    def on_sample(self, t: float, hau: str, kind: str, good: bool) -> None:
        """A per-HAU SLO sample: bad degrades, good heals a degradation."""
        state = self._state.get(hau, "healthy")
        if not good and state == "healthy":
            self._set(t, hau, "degraded", f"slo:{kind} sample over bound")
        elif good and state == "degraded":
            self._set(t, hau, "healthy", f"slo:{kind} sample back in bound")

    def on_alert(self, t: float, subject: str, kind: str, action: str) -> None:
        """An alert fired/resolved.  Per-HAU alerts drive that HAU; run-wide
        alerts (subject "") drive every currently-tracked HAU that is not
        already recovering."""
        targets = [subject] if subject else sorted(self._state)
        for hau in targets:
            state = self._state.get(hau, "healthy")
            if action == "fire" and state in ("healthy", "degraded"):
                self._set(t, hau, "alerting", f"slo:{kind} alert fired")
            elif action == "resolve" and state == "alerting":
                self._set(t, hau, "healthy", f"slo:{kind} alert resolved")

    def on_trace_event(self, t: float, kind: str, subject: str) -> None:
        """Fold one failure/recovery trace event into the machine."""
        if kind == "failure.inject":
            # subject is a node id or rack id; every HAU placed there alerts
            for hau in sorted(self._nodes):
                if self._nodes[hau] == subject or self._racks.get(hau) == subject:
                    if self._state.get(hau, "healthy") != "recovering":
                        self._set(t, hau, "alerting", f"failure injected at {subject}")
        elif kind == "recovery.hau.start":
            self._set(t, subject, "recovering", "recovery started")
        elif kind == "recovery.hau":
            self._set(t, subject, "healthy", "recovery complete")
        elif kind == "hau.start":
            # A restart only heals an entity that was mid-recovery or
            # alerting; the boot-time hau.start of a healthy run is a no-op.
            if self._state.get(subject) in ("recovering", "alerting"):
                self._set(t, subject, "healthy", "restarted")

    # -- exports -------------------------------------------------------------
    def states(self) -> dict[str, str]:
        """Current state per entity (HAUs and racks), sorted keys."""
        out = {f"hau:{h}": s for h, s in self._state.items()}
        out.update({f"rack:{r}": s for r, s in self._rack_state.items()})
        return dict(sorted(out.items()))
