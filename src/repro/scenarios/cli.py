"""``python -m repro.scenarios`` — validate / run / goldens subcommands.

* ``validate [paths...]`` — schema-check scenario files (default: every
  file under ``examples/scenarios/``); prints each document's errors
  with their paths and exits 1 if any document is invalid.
* ``run <path>`` — compile and execute one scenario, print its outcome
  (digest, throughput, rounds, expectation results).
* ``goldens [--write]`` — run every example scenario and compare its
  digest against ``GOLDENS.json`` (exit 0 ok / 1 out of date / 77
  skipped: the goldens were recorded on another python/numpy build);
  ``--write`` regenerates the file after an intentional model change.

The fuzzing campaign lives one module down:
``python -m repro.scenarios.campaign`` (see :mod:`repro.scenarios.campaign`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.harness.digest import EXIT_SKIPPED, environment_mismatch
from repro.scenarios.campaign import default_examples_dir
from repro.scenarios.compiler import check_expectations, compile_scenario
from repro.scenarios.goldens import (
    default_goldens_path,
    golden_status,
    load_goldens,
    write_goldens,
)
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
        compiled = [compile_scenario(load_path(p), source=str(p))
                    for p in scenario_paths(default_examples_dir())]
    except (ScenarioParseError, ScenarioValidationError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if not compiled:
        print("no example scenarios found", file=sys.stderr)
        return 2
    payloads = run_cells([scn.spec for scn in compiled], use_cache=not args.no_cache)
    digests = {scn.scenario_id: payload["digest"]
               for scn, payload in zip(compiled, payloads)}
    goldens_path = Path(args.goldens) if args.goldens else default_goldens_path()
    if args.write:
        path = write_goldens(digests, goldens_path)
        print(f"wrote {len(digests)} golden digest(s) to {path}")
        return 0
    goldens = load_goldens(goldens_path)
    failures = 0
    for scenario_id, digest in sorted(digests.items()):
        status = golden_status(goldens, scenario_id, digest)
        if status in ("MISMATCH", "new"):
            failures += 1
        print(f"  {status}: {scenario_id} {digest}")
    skipped = environment_mismatch(goldens.get("environment"))
    if skipped:
        print(f"goldens check skipped: {skipped}")
        return EXIT_SKIPPED
    if failures:
        print(f"FAIL: {failures} golden(s) out of date — "
              "python -m repro.scenarios goldens --write after an intentional change")
        return 1
    print(f"OK: {len(digests)} scenario digest(s) checked")
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

    p_goldens = sub.add_parser("goldens", help="check or regenerate digest goldens")
    p_goldens.add_argument("--write", action="store_true")
    p_goldens.add_argument("--goldens", default=None)
    p_goldens.add_argument("--no-cache", action="store_true")
    p_goldens.set_defaults(func=_cmd_goldens)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
