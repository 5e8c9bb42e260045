"""Determinism digests: canonical fingerprints of experiment outcomes.

The simulator promises bit-identical behaviour for a given seed.  This
module turns that promise into something checkable: a *fingerprint* is a
JSON-ready dict of everything an experiment decided (per-HAU tuple
counts, checkpoint-round timelines, recovery timelines, probe metrics),
and a *digest* is the SHA-256 of its canonical serialisation.  Two runs
agree on their digest iff they agreed on every recorded decision.

Used three ways:

* the committed baseline (``benchmarks/DIGEST_baseline.json``) proves the
  kernel fast paths did not perturb the event order of the seed engine;
* ``tests/test_determinism_digest.py`` proves run-twice and
  serial-vs-parallel sweeps are bit-identical;
* ``python -m repro.harness.digest`` recomputes the canonical configs and
  compares them against the baseline (the CI determinism gate).

Fingerprints draw exclusively from simulation state, so the canonical
JSON (``sort_keys`` + shortest-repr floats) is byte-stable across runs
of the same build.  Floating-point results can legitimately differ
across numpy/BLAS builds, so the baseline records the environment it was
produced under and the CLI refuses to compare across mismatched
environments instead of reporting a false failure — and exits
``EXIT_SKIPPED`` (77), not 0: a check that did not run says so.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
from typing import Any

import numpy

from repro.harness.experiment import ExperimentConfig, ExperimentResult, run_experiment


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
        for rec in getattr(result.scheme, "recoveries", [])
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


def combined_digest(digests: list[str]) -> str:
    """Order-sensitive digest of a digest sequence (a whole sweep)."""
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


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
# the digest and goldens CLIs return when nothing could be compared.
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


def compute_baseline(cases: list[str] | None = None) -> dict[str, Any]:
    """Run every canonical case (or the named subset) and collect digests."""
    selected = canonical_cases()
    if cases is not None:
        unknown = sorted(set(cases) - set(selected))
        if unknown:
            raise KeyError(f"unknown canonical case(s): {', '.join(unknown)}")
        selected = {k: v for k, v in selected.items() if k in set(cases)}
    digests = {}
    for name, (cfg, kwargs) in selected.items():
        digests[name] = result_digest(run_experiment(cfg, **kwargs))
    return {
        "environment": environment_fingerprint(),
        "digests": digests,
        "combined": combined_digest([digests[k] for k in sorted(digests)]),
    }


def main(argv: list[str] | None = None) -> int:
    """CLI: ``check`` (default) compares against the committed baseline
    (exit 0 ok / 1 mismatch / 77 skipped: recorded on another build);
    ``--write <path>`` regenerates it (after an intentional model change);
    ``--json`` prints the current digests without comparing (the
    iteration-order canary diffs this output across PYTHONHASHSEED)."""
    import argparse
    from pathlib import Path

    default_baseline = (
        Path(__file__).resolve().parents[3] / "benchmarks" / "DIGEST_baseline.json"
    )
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(default_baseline))
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate the baseline file instead of checking against it",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the freshly computed digests as JSON and exit (no "
        "baseline comparison)",
    )
    parser.add_argument(
        "--cases", default=None, metavar="NAMES",
        help="comma-separated subset of canonical case names to run",
    )
    args = parser.parse_args(argv)

    case_filter = [c for c in args.cases.split(",") if c] if args.cases else None
    try:
        current = compute_baseline(case_filter)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(current, indent=2, sort_keys=True))
        return 0
    if args.write:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(current['digests'])} digests to {args.baseline}")
        return 0

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    skipped = environment_mismatch(baseline.get("environment"))
    if skipped:
        print(f"digest check skipped: {skipped}")
        return EXIT_SKIPPED
    failures = 0
    compare = sorted(baseline["digests"])
    if case_filter is not None:
        compare = [n for n in compare if n in set(case_filter)]
    for name in compare:
        want = baseline["digests"][name]
        got = current["digests"].get(name)
        status = "ok" if got == want else "MISMATCH"
        if got != want:
            failures += 1
        print(f"  {status}: {name} {got}")
    if failures:
        print(f"FAIL: {failures} digest mismatch(es) — event order or model behaviour changed")
        return 1
    print(f"OK: {len(compare)} digests bit-identical to baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
