"""Seeded chaos-campaign runner: ``python -m repro.scenarios.campaign``.

A campaign is (a) every checked-in scenario under ``examples/scenarios/``
and (b) ``--count`` fuzzed scenarios drawn from ``--seed`` (see
:mod:`repro.scenarios.fuzz`), compiled to cells and fanned through the
content-addressed parallel sweep runner.  Per scenario the campaign
checks:

* **digest golden** (examples only) — the run's determinism digest must
  be bit-identical to ``examples/scenarios/GOLDENS.json``;
* **expectations** — the document's ``expect`` block (min rounds,
  recovery happened, throughput floor).

A scenario whose run raises is a failed row carrying the exception text
(``error``), not the end of the campaign: every other scenario is still
evaluated, and the failed cell is never cached.

The report is canonical JSON and intentionally excludes anything
machine- or cache-dependent (worker counts, hit/miss stats, wall
time), so the same ``--seed``/``--count`` produce byte-identical
reports on hot and cold caches — CI diffs two back-to-back runs to
enforce exactly that.

Exit codes: 0 = all scenarios passed (always, under ``--warn-only``);
1 = an expectation failed, a golden mismatched or a run raised;
2 = bad invocation (unreadable/invalid checked-in scenario).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from repro.harness.digest import canonical_json
from repro.harness.sweep import SweepStats, run_cells
from repro.scenarios.compiler import CompiledScenario, check_expectations, compile_scenario
from repro.scenarios.fuzz import fuzz_documents
from repro.scenarios.goldens import golden_status, load_goldens
from repro.scenarios.loader import ScenarioParseError, load_path, scenario_paths
from repro.scenarios.schema import ScenarioValidationError

# v2: rows carry failure_kinds.
# v3: the per-scheme x per-failure-kind aggregate block (it had no
#     reader) is gone; a scenario whose run raised is a FAIL row with an
#     ``error`` field.
REPORT_VERSION = 3

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INVOCATION = 2


def default_examples_dir() -> Path:
    return Path(__file__).resolve().parents[3] / "examples" / "scenarios"


def load_examples(directory: Path) -> list[CompiledScenario]:
    """Compile every checked-in scenario; parse/schema errors are fatal."""
    compiled = []
    for path in scenario_paths(directory):
        doc = load_path(path)
        compiled.append(compile_scenario(doc, source=str(path)))
    return compiled


# What a row reads from a payload; a cell whose run raised measured none.
_MEASURED = ("digest", "throughput", "latency", "rounds_completed", "recovery")


def evaluate(scn: CompiledScenario, payload: dict[str, Any], source: str,
             goldens: dict[str, Any]) -> dict[str, Any]:
    """One deterministic report row for a scenario that ran — or, when
    its run raised (``payload`` is ``{"error": ...}``), a FAIL row with
    the message and nothing measured."""
    error = payload.get("error")
    if error:
        payload = dict.fromkeys(_MEASURED)
    expect_failures = [] if error else check_expectations(scn.doc, payload)
    golden = golden_status(goldens, scn.scenario_id, payload["digest"]) \
        if source == "example" and not error else None
    ok = not error and not expect_failures and golden not in ("MISMATCH", "new")
    cp = payload.get("critical_path")
    row = {
        "id": scn.scenario_id,
        "source": source,
        "app": scn.spec.config.app,
        "scheme": scn.spec.config.scheme,
        "failures": len(scn.spec.failure_trace or ()),
        "failure_kinds": sorted({e.kind for e in scn.spec.failure_trace or ()}),
        "digest": payload["digest"],
        "golden": golden,
        "throughput": payload["throughput"],
        "latency": payload["latency"],
        "rounds_completed": payload["rounds_completed"],
        "critical_path_max": cp["max_seconds"] if cp else None,
        "recovered": payload["recovery"] is not None,
        "expect_failures": expect_failures,
        "status": "pass" if ok else "FAIL",
    }
    if error:
        row["error"] = error
    return row


def build_report(rows: list[dict[str, Any]], seed: int, count: int) -> dict[str, Any]:
    return {
        "report_version": REPORT_VERSION,
        "campaign": {
            "seed": seed,
            "count": count,
            "examples": sorted(r["id"] for r in rows if r["source"] == "example"),
        },
        "scenarios": rows,
        "summary": {
            "total": len(rows),
            "passed": sum(r["status"] == "pass" for r in rows),
            "failed": sum(r["status"] == "FAIL" for r in rows),
            "golden_mismatches": sum(r["golden"] == "MISMATCH" for r in rows),
            "env_skipped": sum(r["golden"] == "env-skip" for r in rows),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios.campaign",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--seed", type=int, default=7, help="fuzzer seed (default 7)")
    parser.add_argument("--count", type=int, default=5,
                        help="number of fuzzed scenarios (default 5)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel workers (default: REPRO_JOBS or all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the sweep cache (results are identical either way)")
    parser.add_argument("--cache-dir", default=None, help="sweep cache directory")
    parser.add_argument("--output", default=None,
                        help="write the canonical-JSON campaign report here")
    parser.add_argument("--goldens", default=None,
                        help="digest goldens file (default examples/scenarios/GOLDENS.json)")
    parser.add_argument("--examples-dir", default=None,
                        help="scenario library directory (default examples/scenarios/)")
    parser.add_argument("--skip-examples", action="store_true",
                        help="fuzzed scenarios only")
    parser.add_argument("--warn-only", action="store_true",
                        help="report failures but exit 0 (nightly drift mode)")
    args = parser.parse_args(argv)

    jobs: list[tuple[CompiledScenario, str]] = []
    if not args.skip_examples:
        examples_dir = Path(args.examples_dir) if args.examples_dir else default_examples_dir()
        try:
            jobs += [(scn, "example") for scn in load_examples(examples_dir)]
        except (ScenarioParseError, ScenarioValidationError, OSError) as exc:
            print(exc, file=sys.stderr)
            return EXIT_BAD_INVOCATION
    for doc in fuzz_documents(args.seed, args.count):
        jobs.append((compile_scenario(doc, source=doc["id"]), "fuzz"))
    if not jobs:
        print("nothing to run: no example scenarios and --count 0", file=sys.stderr)
        return EXIT_BAD_INVOCATION

    stats = SweepStats()
    payloads = run_cells(
        [scn.spec for scn, _src in jobs],
        jobs=args.jobs,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        use_cache=not args.no_cache,
        stats=stats,
        keep_going=True,
    )
    goldens = load_goldens(args.goldens)
    rows = [evaluate(scn, payload, src, goldens)
            for (scn, src), payload in zip(jobs, payloads)]
    report = build_report(rows, args.seed, args.count)

    for row in rows:
        golden = f" golden={row['golden']}" if row["golden"] is not None else ""
        print(f"  {row['status']:4s} {row['id']}: {row['app']}/{row['scheme']} "
              f"failures={row['failures']} thr={row['throughput']}"
              f" rounds={row['rounds_completed']}{golden}")
        for problem in row["expect_failures"]:
            print(f"         expect: {problem}")
        if "error" in row:
            print(f"         error: {row['error']}")
    s = report["summary"]
    print(f"campaign: {s['passed']}/{s['total']} passed, "
          f"{s['golden_mismatches']} golden mismatch(es), "
          f"{s['env_skipped']} env-skip(s)")
    # Cache traffic goes to stderr: useful when watching, never part of
    # the byte-deterministic report/stdout contract.
    print(f"sweep: {stats.cache_hits} cache hit(s), {stats.executed} executed",
          file=sys.stderr)

    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(canonical_json(report) + "\n", encoding="utf-8")
        print(f"report: {out}", file=sys.stderr)

    if s["failed"] and not args.warn_only:
        return EXIT_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
