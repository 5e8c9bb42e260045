"""``python -m repro.scenarios`` — validate / run / goldens subcommands.

* ``validate [paths...]`` — schema-check scenario files (default: every
  file under ``examples/scenarios/``); prints each document's errors
  with their paths and exits 1 if any document is invalid.
* ``run <path>`` — compile and execute one scenario, print its outcome
  (digest, throughput, rounds, expectation results).
* ``goldens [--json] [--cases NAMES] [--no-cache]`` — the one pin gate:
  run the thirteen pinned cells
  (:func:`repro.scenarios.goldens.pinned_cells`) in one ``run_cells``
  call and compare each digest with the file that pins it.  Exits 0 ok,
  1 a mismatch or a name with no pin, 2 bad input (an unknown name, a
  pin file missing or unparseable), 77 skipped (a pin file was recorded
  on another python/numpy build, so nothing it pins was compared).
  ``--json`` prints the digests and compares nothing (the hash-seed
  canary diffs this output).  It only checks: after an intentional model
  change, ``python benchmarks/repin.py`` rewrites every pin.

The fuzzing campaign lives one module down:
``python -m repro.scenarios.campaign`` (see :mod:`repro.scenarios.campaign`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.harness.digest import EXIT_SKIPPED, environment_fingerprint, environment_mismatch
from repro.scenarios.compiler import check_expectations, compile_scenario
from repro.scenarios.goldens import default_examples_dir, golden_status, pin_files, pinned_cells
from repro.scenarios.loader import ScenarioParseError, load_path, scenario_paths
from repro.scenarios.schema import ScenarioValidationError, validate


def _cmd_validate(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths] or scenario_paths(default_examples_dir())
    if not paths:
        print("no scenario files found", file=sys.stderr)
        return 1
    bad = 0
    for path in paths:
        try:
            doc = load_path(path)
        except (ScenarioParseError, OSError) as exc:
            print(f"  FAIL {path}: {exc}")
            bad += 1
            continue
        errors = validate(doc)
        if errors:
            bad += 1
            print(f"  FAIL {path}: {len(errors)} schema error(s)")
            for err in errors:
                print(f"         {err}")
        else:
            print(f"  ok   {path} ({doc['id']})")
    print(f"{len(paths) - bad}/{len(paths)} scenario(s) valid")
    return 1 if bad else 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.sweep import run_cells

    try:
        scn = compile_scenario(load_path(args.path), source=args.path)
    except (ScenarioParseError, ScenarioValidationError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    [payload] = run_cells([scn.spec], jobs=1, use_cache=not args.no_cache)
    print(f"{scn.scenario_id}: digest={payload['digest']}")
    print(f"  throughput={payload['throughput']} latency={payload['latency']:.3f}s "
          f"rounds={payload['rounds_completed']} "
          f"recovered={payload['recovery'] is not None}")
    problems = check_expectations(scn.doc, payload)
    for problem in problems:
        print(f"  expect: {problem}")
    return 1 if problems else 0


def _cmd_goldens(args: argparse.Namespace) -> int:
    from repro.harness.sweep import run_cells

    try:
        cells = pinned_cells()
    except (ScenarioParseError, ScenarioValidationError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.cases:
        wanted = {c for c in args.cases.split(",") if c}
        unknown = sorted(wanted - set(cells))
        if unknown:
            print(f"error: unknown pinned cell(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        cells = {name: spec for name, spec in cells.items() if name in wanted}
    files = pin_files(list(cells))
    pins = {}
    if not args.json:
        # a pin file that is not there compared nothing, and says so
        # with 2 rather than with env-skip's 77
        for path in files:
            try:
                pins[path] = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                print(f"error: pin file {path}: {exc}", file=sys.stderr)
                return 2
            if not (isinstance(pins[path], dict)
                    and isinstance(pins[path].get("digests"), dict)):
                print(f"error: pin file {path}: no digests object", file=sys.stderr)
                return 2
    payloads = run_cells(list(cells.values()), use_cache=not args.no_cache)
    digests = {name: payload["digest"] for name, payload in zip(cells, payloads)}
    if args.json:
        print(json.dumps({"environment": environment_fingerprint(), "digests": digests},
                         indent=2, sort_keys=True))
        return 0
    statuses = []
    for path, names in files.items():
        for name in names:
            statuses.append(golden_status(pins[path], name, digests[name]))
            print(f"  {statuses[-1]}: {name} {digests[name]}")
    failures = sum(status in ("MISMATCH", "new") for status in statuses)
    if failures:
        print(f"FAIL: {failures} pin(s) out of date — "
              "python benchmarks/repin.py after an intentional change")
        return 1
    for pinned in pins.values():
        if skipped := environment_mismatch(pinned.get("environment")):
            print(f"goldens check skipped: {skipped}")
            return EXIT_SKIPPED
    print(f"OK: {len(digests)} pinned digest(s) bit-identical")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="schema-check scenario files")
    p_validate.add_argument("paths", nargs="*", help="files (default: examples/scenarios/)")
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="compile and execute one scenario")
    p_run.add_argument("path")
    p_run.add_argument("--no-cache", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_goldens = sub.add_parser("goldens", help="check the pinned digests")
    p_goldens.add_argument(
        "--json", action="store_true",
        help="print the fresh digests as JSON, comparing nothing")
    p_goldens.add_argument(
        "--cases", default=None, metavar="NAMES",
        help="comma-separated subset of the pinned cell names")
    p_goldens.add_argument("--no-cache", action="store_true")
    p_goldens.set_defaults(func=_cmd_goldens)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
