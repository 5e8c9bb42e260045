"""Scenario document schema: shape, enums, and actionable validation.

A *scenario* is a declarative YAML/JSON document describing one complete
reliability experiment — app + topology, cluster shape, run schedule,
checkpoint scheme, and a failure trace — that
:mod:`repro.scenarios.compiler` lowers onto the existing harness
(:class:`~repro.harness.sweep.CellSpec` → ``run_cells``), so every
scenario inherits tracing, telemetry, critical paths and digest
determinism for free.

The document shape (see DESIGN.md § Scenario schema for the reference
table)::

    id: rack-burst-recovery          # required slug, unique per library
    version: 1                       # required, must equal VERSION
    description: free text           # optional
    app: {name: tmi, params: {...}}  # required; params forwarded to build()
    seed: 1                          # optional int
    cluster: {workers: 8, spares: 12, racks: 2}
    run: {window: 40.0, warmup: 10.0, n_checkpoints: 2, recovery: true}
    scheme: ms-src+ap                # required, one of SCHEME_NAMES - oracle
    failures:                        # optional list of PlannedFailure rows
      - {at: 20.0, kind: rack, target: rack1, cause: power}
      - {at: 22.0, kind: partition, target: rack0, duration: 6.0, factor: 200.0}
    monitor:                         # optional live monitoring plane
      period: 1.0                    # tick period (sim seconds)
      slos: {checkpoint-staleness: 12.0}   # SLO kind -> bound override
    expect:                          # optional outcome assertions
      min_rounds: 1
      recovers: true
      min_throughput: 1000
      alerts:                        # needs monitor; minimum alert counts
        - {slo: checkpoint-staleness, fired: 1, resolved: 1}

Validation never raises on the first problem: :func:`validate` walks the
whole document and returns every :class:`SchemaError`, each carrying a
``path`` (``failures[2].target``) and a message that states the allowed
values — the errors are meant to be pasted back at the scenario author.

Enums are imported live from the modules that implement them
(``SCHEME_NAMES``, ``APPS``, ``FAILURE_KINDS``); the top-level field list
is ``repro.vocabulary.SCENARIO_FIELDS``, which DESIGN.md's scenario
table is generated from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.apps import APPS
from repro.apps.synth import TopologyError, _check_topology
from repro.failures.injector import FAILURE_KINDS
from repro.harness.experiment import SCHEME_NAMES
from repro.monitor.slo import SLO_KINDS
from repro.vocabulary import DEGRADATION_KINDS, SCENARIO_FIELDS

VERSION = 1

TOP_LEVEL_FIELDS = tuple(SCENARIO_FIELDS)
REQUIRED_FIELDS = ("id", "version", "app", "scheme")
APP_FIELDS = ("name", "params")
CLUSTER_FIELDS = ("workers", "spares", "racks")
RUN_FIELDS = ("window", "warmup", "n_checkpoints", "recovery")
FAILURE_FIELDS = ("at", "kind", "target", "cause", "duration", "factor")
MONITOR_FIELDS = ("period", "slos")
EXPECT_FIELDS = ("min_rounds", "recovers", "min_throughput", "alerts")
ALERT_EXPECT_FIELDS = ("slo", "subject", "fired", "resolved")

# Scenarios drive schemes that run unattended; "oracle" needs observed
# per-run checkpoint instants (find_oracle_times), so it stays a
# harness-level tool rather than a scenario option.
SCENARIO_SCHEMES = tuple(s for s in SCHEME_NAMES if s != "oracle")

_ID_RE = re.compile(r"^[a-z0-9][a-z0-9-]{0,63}$")
_NODE_RE = re.compile(r"^(w|spare)(\d+)$")
_RACK_RE = re.compile(r"^rack(\d+)$")


@dataclass(frozen=True)
class SchemaError:
    """One problem, addressed by document path, phrased for the author."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class ScenarioValidationError(ValueError):
    """Raised by :func:`check` when a document has any schema error."""

    def __init__(self, source: str, errors: list[SchemaError]):
        self.source = source
        self.errors = errors
        lines = "\n".join(f"  - {e}" for e in errors)
        super().__init__(f"{source}: {len(errors)} schema error(s)\n{lines}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _unknown_keys(mapping: dict, allowed: tuple, path: str, errors: list[SchemaError]) -> None:
    for key in sorted(set(mapping) - set(allowed)):
        errors.append(SchemaError(f"{path}.{key}" if path else str(key),
                                  f"unknown field; allowed: {', '.join(allowed)}"))


def _validate_app(app: Any, errors: list[SchemaError]) -> None:
    if not isinstance(app, dict):
        errors.append(SchemaError("app", "must be a mapping {name, params}"))
        return
    _unknown_keys(app, APP_FIELDS, "app", errors)
    name = app.get("name")
    if name not in APPS:
        errors.append(SchemaError("app.name", f"unknown app {name!r}; choose from {sorted(APPS)}"))
        return
    params = app.get("params", {})
    if not isinstance(params, dict):
        errors.append(SchemaError("app.params", "must be a mapping of build() keyword arguments"))
        return
    if name == "synth" and "topology" in params:
        try:
            _check_topology(params["topology"])
        except TopologyError as exc:
            errors.append(SchemaError("app.params.topology", str(exc)))
        except (TypeError, AttributeError):
            errors.append(SchemaError("app.params.topology",
                                      "must be a mapping {stages: [...], edges: [...]}"))


def _validate_cluster(cluster: Any, errors: list[SchemaError]) -> dict[str, int]:
    """Validate and return the effective cluster shape for target checks."""
    shape = {"workers": 8, "spares": 12, "racks": 2}
    if cluster is None:
        return shape
    if not isinstance(cluster, dict):
        errors.append(SchemaError("cluster", "must be a mapping {workers, spares, racks}"))
        return shape
    _unknown_keys(cluster, CLUSTER_FIELDS, "cluster", errors)
    for key in CLUSTER_FIELDS:
        if key not in cluster:
            continue
        value = cluster[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            errors.append(SchemaError(f"cluster.{key}", "must be an integer >= 1"))
        else:
            shape[key] = value
    return shape


def _validate_run(run: Any, errors: list[SchemaError]) -> None:
    if run is None:
        return
    if not isinstance(run, dict):
        errors.append(SchemaError("run", "must be a mapping {window, warmup, n_checkpoints, recovery}"))
        return
    _unknown_keys(run, RUN_FIELDS, "run", errors)
    for key in ("window", "warmup"):
        if key in run and (not _is_number(run[key]) or run[key] <= 0):
            errors.append(SchemaError(f"run.{key}", "must be a number > 0 (seconds)"))
    if "n_checkpoints" in run:
        n = run["n_checkpoints"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            errors.append(SchemaError("run.n_checkpoints", "must be an integer >= 0"))
    if "recovery" in run and not isinstance(run["recovery"], bool):
        errors.append(SchemaError("run.recovery", "must be true or false"))


def _validate_target(kind: str, target: Any, shape: dict[str, int],
                     path: str, errors: list[SchemaError]) -> None:
    if not isinstance(target, str):
        errors.append(SchemaError(path, "must be a node or rack id string"))
        return
    if kind in ("rack", "partition"):
        m = _RACK_RE.match(target)
        if not m or int(m.group(1)) >= shape["racks"]:
            errors.append(SchemaError(
                path,
                f"{kind!r} targets a rack: rack0..rack{shape['racks'] - 1} "
                f"(cluster has racks={shape['racks']})",
            ))
        return
    # node / straggler target a single node
    if target == "storage":
        return
    m = _NODE_RE.match(target)
    if m:
        prefix, index = m.group(1), int(m.group(2))
        limit = shape["workers"] if prefix == "w" else shape["spares"]
        if index < limit:
            return
    errors.append(SchemaError(
        path,
        f"{kind!r} targets a node: w0..w{shape['workers'] - 1}, "
        f"spare0..spare{shape['spares'] - 1}, or storage",
    ))


def _validate_failures(failures: Any, shape: dict[str, int],
                       errors: list[SchemaError]) -> None:
    if failures is None:
        return
    if not isinstance(failures, list):
        errors.append(SchemaError("failures", "must be a list of failure events"))
        return
    for i, event in enumerate(failures):
        path = f"failures[{i}]"
        if not isinstance(event, dict):
            errors.append(SchemaError(path, "must be a mapping {at, kind, target, ...}"))
            continue
        _unknown_keys(event, FAILURE_FIELDS, path, errors)
        if not _is_number(event.get("at")) or event.get("at", -1) < 0:
            errors.append(SchemaError(f"{path}.at", "must be a number >= 0 (sim seconds)"))
        kind = event.get("kind")
        if kind not in FAILURE_KINDS:
            errors.append(SchemaError(
                f"{path}.kind", f"unknown kind {kind!r}; choose from {', '.join(FAILURE_KINDS)}"))
            continue
        _validate_target(kind, event.get("target"), shape, f"{path}.target", errors)
        if "cause" in event and not isinstance(event["cause"], str):
            errors.append(SchemaError(f"{path}.cause", "must be a short string label"))
        for key, rule in (("duration", "a number >= 0 (0 = permanent)"),
                          ("factor", "a number >= 1")):
            if key not in event:
                continue
            if kind not in DEGRADATION_KINDS:
                errors.append(SchemaError(
                    f"{path}.{key}",
                    f"only valid for {' / '.join(DEGRADATION_KINDS)}; "
                    f"{kind!r} is a permanent kill"))
            elif not _is_number(event[key]) or event[key] < (0 if key == "duration" else 1):
                errors.append(SchemaError(f"{path}.{key}", f"must be {rule}"))


def _validate_monitor(monitor: Any, errors: list[SchemaError]) -> None:
    if monitor is None:
        return
    if not isinstance(monitor, dict):
        errors.append(SchemaError("monitor", "must be a mapping {period, slos}"))
        return
    _unknown_keys(monitor, MONITOR_FIELDS, "monitor", errors)
    if "period" in monitor and (not _is_number(monitor["period"]) or monitor["period"] <= 0):
        errors.append(SchemaError("monitor.period", "must be a number > 0 (sim seconds)"))
    slos = monitor.get("slos")
    if slos is None:
        return
    if not isinstance(slos, dict):
        errors.append(SchemaError("monitor.slos", "must be a mapping of SLO kind -> bound"))
        return
    for kind in sorted(slos):
        if kind not in SLO_KINDS:
            errors.append(SchemaError(
                f"monitor.slos.{kind}",
                f"unknown SLO kind; choose from {', '.join(SLO_KINDS)}"))
        elif not _is_number(slos[kind]) or slos[kind] <= 0:
            errors.append(SchemaError(f"monitor.slos.{kind}", "must be a number > 0 (seconds)"))


def _validate_alert_expectations(alerts: Any, errors: list[SchemaError]) -> None:
    if not isinstance(alerts, list):
        errors.append(SchemaError("expect.alerts", "must be a list of alert assertions"))
        return
    for i, row in enumerate(alerts):
        path = f"expect.alerts[{i}]"
        if not isinstance(row, dict):
            errors.append(SchemaError(path, "must be a mapping {slo, subject, fired, resolved}"))
            continue
        _unknown_keys(row, ALERT_EXPECT_FIELDS, path, errors)
        slo = row.get("slo")
        if slo not in SLO_KINDS:
            errors.append(SchemaError(
                f"{path}.slo", f"unknown SLO kind {slo!r}; choose from {', '.join(SLO_KINDS)}"))
        if "subject" in row and not isinstance(row["subject"], str):
            errors.append(SchemaError(f"{path}.subject", "must be an HAU id string"))
        if "fired" not in row and "resolved" not in row:
            errors.append(SchemaError(
                path, "must assert at least one of fired / resolved (minimum counts)"))
        for key in ("fired", "resolved"):
            if key in row:
                n = row[key]
                if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                    errors.append(SchemaError(f"{path}.{key}", "must be an integer >= 0"))


def _validate_expect(expect: Any, errors: list[SchemaError]) -> None:
    if expect is None:
        return
    if not isinstance(expect, dict):
        errors.append(SchemaError("expect", "must be a mapping of outcome assertions"))
        return
    _unknown_keys(expect, EXPECT_FIELDS, "expect", errors)
    if "min_rounds" in expect:
        n = expect["min_rounds"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            errors.append(SchemaError("expect.min_rounds", "must be an integer >= 0"))
    if "recovers" in expect and not isinstance(expect["recovers"], bool):
        errors.append(SchemaError("expect.recovers", "must be true or false"))
    if "min_throughput" in expect and (
            not _is_number(expect["min_throughput"]) or expect["min_throughput"] < 0):
        errors.append(SchemaError("expect.min_throughput", "must be a number >= 0 (tuples)"))
    if "alerts" in expect:
        _validate_alert_expectations(expect["alerts"], errors)


def validate(doc: Any) -> list[SchemaError]:
    """Every schema problem in ``doc``, in document order; empty = valid."""
    errors: list[SchemaError] = []
    if not isinstance(doc, dict):
        return [SchemaError("$", "scenario document must be a mapping")]
    _unknown_keys(doc, TOP_LEVEL_FIELDS, "", errors)
    for key in REQUIRED_FIELDS:
        if key not in doc:
            errors.append(SchemaError(key, "required field is missing"))

    if "id" in doc and (not isinstance(doc["id"], str) or not _ID_RE.match(doc["id"])):
        errors.append(SchemaError("id", "must be a lowercase slug matching [a-z0-9][a-z0-9-]*"))
    if "version" in doc and doc["version"] != VERSION:
        errors.append(SchemaError("version", f"must be {VERSION} (this library's schema version)"))
    if "description" in doc and not isinstance(doc["description"], str):
        errors.append(SchemaError("description", "must be a string"))
    if "seed" in doc and (not isinstance(doc["seed"], int) or isinstance(doc["seed"], bool)):
        errors.append(SchemaError("seed", "must be an integer"))
    if "scheme" in doc and doc["scheme"] not in SCENARIO_SCHEMES:
        errors.append(SchemaError(
            "scheme",
            f"unknown scheme {doc['scheme']!r}; choose from {', '.join(SCENARIO_SCHEMES)} "
            "(oracle needs observed checkpoint times — drive it via the harness directly)"))

    if "app" in doc:
        _validate_app(doc["app"], errors)
    shape = _validate_cluster(doc.get("cluster"), errors)
    _validate_run(doc.get("run"), errors)
    _validate_failures(doc.get("failures"), shape, errors)
    _validate_monitor(doc.get("monitor"), errors)
    _validate_expect(doc.get("expect"), errors)
    return errors


def check(doc: Any, source: str = "<scenario>") -> dict:
    """Validate and return ``doc``; raise with every error otherwise."""
    errors = validate(doc)
    if errors:
        raise ScenarioValidationError(source, errors)
    return doc
