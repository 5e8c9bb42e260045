"""Lower validated scenario documents onto the sweep harness.

The compiler is a pure function from document to
:class:`~repro.harness.sweep.CellSpec`: the scenario's app/cluster/run
sections become an :class:`~repro.harness.experiment.ExperimentConfig`,
and its ``failures`` list becomes the cell's declarative
``failure_trace`` (a tuple of
:class:`~repro.failures.injector.PlannedFailure`).  Because the result
is an ordinary cell, scenarios ride the content-addressed cache, the
parallel runner, tracing and the digest machinery without any code of
their own — two compilations of the same document are equal cells with
equal cache keys.

Defaults mirror the harness's canonical digest cases (small windows,
8 workers / 12 spares / 2 racks) so a bare scenario runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.failures import injector
from repro.failures.injector import PlannedFailure
from repro.harness.experiment import ExperimentConfig
from repro.harness.sweep import CellSpec
from repro.scenarios.schema import check
from repro.vocabulary import DEGRADATION_KINDS

# One bounded degradation window by default: long enough to perturb the
# measured window, short enough that every scenario also exercises the
# restore path.
DEFAULT_DURATION = 6.0

DEFAULT_CLUSTER = {"workers": 8, "spares": 12, "racks": 2}
DEFAULT_RUN = {"window": 40.0, "warmup": 10.0, "n_checkpoints": 2, "recovery": False}
DEFAULT_SEED = 1

# Every degradation kind the vocabulary names has an injector default,
# `DEFAULT_<KIND>_FACTOR` (a kind without one fails this import).
_DEFAULT_FACTORS = {
    kind: getattr(injector, f"DEFAULT_{kind.upper()}_FACTOR") for kind in DEGRADATION_KINDS
}


@dataclass(frozen=True)
class CompiledScenario:
    """A document plus the cell it lowers to."""

    scenario_id: str
    doc: dict[str, Any]
    spec: CellSpec


def _lower_failures(failures: list[dict[str, Any]] | None) -> tuple[PlannedFailure, ...] | None:
    if not failures:
        return None
    events = []
    for row in failures:
        kind = row["kind"]
        degradation = kind in _DEFAULT_FACTORS
        events.append(PlannedFailure(
            at=float(row["at"]),
            kind=kind,
            target=row["target"],
            cause=row.get("cause", "scenario"),
            duration=float(row.get("duration", DEFAULT_DURATION)) if degradation else 0.0,
            factor=float(row.get("factor", _DEFAULT_FACTORS.get(kind, 1.0))),
        ))
    # Same ordering key as FailurePlan.sorted_events, so the document's
    # listing order never leaks into the cell key or the injection order.
    events.sort(key=lambda e: (e.at, e.target, e.kind))
    return tuple(events)


def compile_scenario(doc: dict[str, Any], source: str = "<scenario>") -> CompiledScenario:
    """Validate ``doc`` and lower it to a runnable cell.

    Raises :class:`~repro.scenarios.schema.ScenarioValidationError` on a
    bad document — the compiler never guesses around schema errors.
    """
    check(doc, source)
    cluster = {**DEFAULT_CLUSTER, **doc.get("cluster", {})}
    run = {**DEFAULT_RUN, **doc.get("run", {})}
    monitor = doc.get("monitor")
    app = doc["app"]
    cfg = ExperimentConfig(
        app=app["name"],
        scheme=doc["scheme"],
        n_checkpoints=run["n_checkpoints"],
        window=float(run["window"]),
        warmup=float(run["warmup"]),
        seed=doc.get("seed", DEFAULT_SEED),
        workers=cluster["workers"],
        spares=cluster["spares"],
        racks=cluster["racks"],
        app_params=dict(app.get("params", {})),
        enable_recovery=run["recovery"],
        monitor_period=float(monitor.get("period", 1.0)) if monitor else 0.0,
        monitor_slos={k: float(v) for k, v in (monitor.get("slos") or {}).items()}
        if monitor
        else {},
    )
    spec = CellSpec(config=cfg, failure_trace=_lower_failures(doc.get("failures")))
    return CompiledScenario(scenario_id=doc["id"], doc=doc, spec=spec)


def check_expectations(doc: dict[str, Any], payload: dict[str, Any]) -> list[str]:
    """Diff the scenario's ``expect`` block against a cell payload.

    Returns human-readable failures (empty = all expectations hold).
    Expectations are outcome *assertions*, not physics: they let a
    checked-in scenario state what it is a regression test for
    ("recovery happened", "at least one checkpoint round completed").
    """
    expect = doc.get("expect")
    if not expect:
        return []
    failures = []
    if "min_rounds" in expect and payload["rounds_completed"] < expect["min_rounds"]:
        failures.append(
            f"expected >= {expect['min_rounds']} checkpoint round(s), "
            f"got {payload['rounds_completed']}")
    if "recovers" in expect:
        recovered = payload["recovery"] is not None
        if recovered != expect["recovers"]:
            failures.append(
                f"expected recovery={expect['recovers']}, "
                f"but the run {'did' if recovered else 'did not'} recover")
    if "min_throughput" in expect and payload["throughput"] < expect["min_throughput"]:
        failures.append(
            f"expected throughput >= {expect['min_throughput']}, "
            f"got {payload['throughput']}")
    for want in expect.get("alerts") or []:
        log = (payload.get("alerts") or {}).get("log") or []
        matching = [
            row
            for row in log
            if row["slo"] == want["slo"]
            and ("subject" not in want or row["subject"] == want["subject"])
        ]
        label = want["slo"] + (f"/{want['subject']}" if "subject" in want else "")
        for action, key in (("fire", "fired"), ("resolve", "resolved")):
            if key not in want:
                continue
            got = sum(1 for row in matching if row["action"] == action)
            if got < want[key]:
                failures.append(
                    f"expected >= {want[key]} {key} alert(s) for {label}, got {got}"
                    + ("" if (payload.get("alerts") or {}).get("log") is not None
                       else " (run was not monitored — add a monitor section)"))
    return failures
