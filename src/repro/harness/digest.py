"""Determinism digests: canonical fingerprints of experiment outcomes.

The simulator promises bit-identical behaviour for a given seed.  This
module turns that promise into something checkable: a *fingerprint* is a
JSON-ready dict of everything an experiment decided (per-HAU tuple
counts, checkpoint-round timelines, recovery timelines, probe metrics),
and a *digest* is the SHA-256 of its canonical serialisation.  Two runs
agree on their digest iff they agreed on every recorded decision.

The six :func:`canonical_cases` are half of the pinned cells; the pins
themselves, and the one command that checks them
(``python -m repro.scenarios goldens``), live in
:mod:`repro.scenarios.goldens`.

Fingerprints draw exclusively from simulation state, so the canonical
JSON (``sort_keys`` + shortest-repr floats) is byte-stable across runs
of the same build.  Floating-point results can legitimately differ
across numpy/BLAS builds, so a pin file records the environment it was
produced under, and a check on another build compares nothing and exits
``EXIT_SKIPPED`` (77), not 0: a check that did not run says so.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
from typing import Any

import numpy

from repro.harness.experiment import ExperimentConfig, ExperimentResult


def canonical_json(obj: Any) -> str:
    """Deterministic serialisation: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_fingerprint(cfg: ExperimentConfig) -> dict[str, Any]:
    """The config as a JSON-ready dict (nested dataclasses flattened)."""
    out = dataclasses.asdict(cfg)
    # Fields added after the baseline was pinned are omitted while at
    # their inert default, so historical digests stay comparable; a
    # non-default value genuinely changes behaviour and must fingerprint.
    if out.get("monitor_period") == 0.0:
        del out["monitor_period"]
    if out.get("monitor_slos") == {}:
        del out["monitor_slos"]
    # app_params values are scalars/lists in every driver; round-trip
    # through canonical JSON to fail loudly on anything exotic.
    canonical_json(out)
    return out


def result_fingerprint(result: ExperimentResult) -> dict[str, Any]:
    """Everything the run decided, as a JSON-ready deterministic dict.

    This is the pinned serialisation: it keeps the shape the committed
    digests were taken over — an instant not reached is 0.0 and a round
    lists the HAUs whose checkpoint started.
    """
    runtime = result.runtime
    haus = {
        hau_id: {"tuples": hau.tuples_processed, "busy_seconds": hau.busy_time}
        for hau_id, hau in sorted(runtime.haus.items())
    }
    rounds = []
    for log in result.checkpoint_logs:
        rounds.append(
            {
                "round": log.round_id,
                "started_at": log.started_at,
                "completed_at": log.completed_at,
                "haus": {
                    hau_id: {
                        "command_at": bd.command_at or 0.0,
                        "tokens_done_at": bd.tokens_done_at or 0.0,
                        "write_start_at": bd.write_start_at or 0.0,
                        "write_end_at": bd.write_end_at or 0.0,
                        "state_bytes": bd.state_bytes,
                    }
                    for hau_id, bd in sorted(log.haus.items())
                    if bd.start_at is not None
                },
            }
        )
    recoveries = [
        {
            "started_at": rec.started_at,
            "completed_at": rec.completed_at,
            "reconnect_seconds": rec.reconnect_seconds,
            "disk_io_seconds": rec.disk_io_seconds,
            "other": rec.other,
            "bytes_read": rec.bytes_read,
            "haus_recovered": rec.haus_recovered,
        }
        for rec in result.scheme.recoveries
    ]
    return {
        "config": config_fingerprint(result.config),
        "throughput": result.throughput,
        "latency": result.latency,
        "latency_percentiles": dict(sorted(result.latency_percentiles.items())),
        "haus": haus,
        "rounds": rounds,
        "recoveries": recoveries,
    }


def fingerprint_digest(fingerprint: dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(fingerprint).encode("utf-8")).hexdigest()


def result_digest(result: ExperimentResult) -> str:
    """SHA-256 over the run's canonical fingerprint."""
    return fingerprint_digest(result_fingerprint(result))


# -- canonical configs (the committed-baseline set) ---------------------------

def canonical_cases() -> dict[str, tuple[ExperimentConfig, dict[str, Any]]]:
    """Small runs covering every scheme family and the recovery path.

    ``{name: (config, run_experiment kwargs)}`` — deterministic order,
    sized so the whole set stays under ~10 s.
    """
    common = dict(window=40.0, warmup=10.0, workers=8, spares=12, racks=2, seed=1)
    cases: dict[str, tuple[ExperimentConfig, dict[str, Any]]] = {
        "tmi/baseline@2": (
            ExperimentConfig(
                app="tmi", scheme="baseline", n_checkpoints=2,
                app_params={"n_minutes": 0.25}, **common,
            ),
            {},
        ),
        "tmi/ms-src+ap@2": (
            ExperimentConfig(
                app="tmi", scheme="ms-src+ap", n_checkpoints=2,
                app_params={"n_minutes": 0.25}, **common,
            ),
            {},
        ),
        "bcp/ms-src@1": (
            ExperimentConfig(
                app="bcp", scheme="ms-src", n_checkpoints=1,
                app_params={"state_scale": 0.1}, **common,
            ),
            {},
        ),
        "tmi/ms-src+ap@2+failure": (
            ExperimentConfig(
                app="tmi", scheme="ms-src+ap", n_checkpoints=2,
                enable_recovery=True, app_params={"n_minutes": 0.25}, **common,
            ),
            {"failure_at": 35.0},
        ),
        "tmi/oracle@2": (
            ExperimentConfig(
                app="tmi", scheme="oracle", n_checkpoints=2, oracle_times=[18.0, 37.0],
                app_params={"n_minutes": 0.25}, **common,
            ),
            {},
        ),
        "tmi/baseline@2+failure": (
            ExperimentConfig(
                app="tmi", scheme="baseline", n_checkpoints=2,
                enable_recovery=True, app_params={"n_minutes": 0.25}, **common,
            ),
            {"failure_at": 35.0, "failure_targets": ["w2"]},
        ),
    }
    return cases


def environment_fingerprint() -> dict[str, str]:
    """The bits of the host environment float results may depend on."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# The conventional "skipped" exit status (automake, pytest-ish): what
# the pin gate returns when nothing could be compared.
EXIT_SKIPPED = 77


def environment_mismatch(recorded: dict[str, str] | None) -> str | None:
    """None when digests recorded under ``recorded`` can be compared
    here; otherwise why not, as the line a skipped check prints."""
    current = environment_fingerprint()
    if recorded == current:
        return None
    return (
        f"environment mismatch (recorded {recorded}, current {current}) — "
        "float results are only comparable on the recorded build"
    )
