"""Iteration-order canary: digests must not depend on PYTHONHASHSEED.

The in-process sanitizers catch reads of hash order only where the
static rules or runtime guards look; the canary closes the loop end to
end: it runs the pin gate (``python -m repro.scenarios goldens --json
--no-cache``) over the pinned cells in two subprocesses with different
``PYTHONHASHSEED`` values and requires bit-identical digests.  Any
surviving dependence on str/bytes hash order — dict insertion driven by
hashing, a set iteration that leaks into an artifact, a salted
``hash()`` routing decision — flips at least one digest between the two
processes.

Subprocesses are unavoidable: ``PYTHONHASHSEED`` is fixed at
interpreter start and cannot be changed in-process.  Neither reads the
sweep cache: a hit in the second would serve the first seed's payload,
and the canary would compare a run with itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

DEFAULT_SEEDS = (0, 42)


def _child_env(hashseed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    # Make `import repro` resolve in the child exactly as it does here,
    # installed or PYTHONPATH-driven alike.
    pkg_root = str(Path(__file__).resolve().parents[1].parent)
    prior = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + prior if prior else "")
    return env


def _digest_once(hashseed: int, cases: list[str] | None) -> dict[str, Any]:
    cmd = [sys.executable, "-m", "repro.scenarios", "goldens", "--json", "--no-cache"]
    if cases:
        cmd += ["--cases", ",".join(cases)]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=_child_env(hashseed)
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"digest run under PYTHONHASHSEED={hashseed} failed "
            f"(exit {proc.returncode}):\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout)


def run_canary(
    cases: list[str] | None = None,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
) -> int:
    """Run the pin gate under each hash seed; 0 iff all agree."""
    results = {seed: _digest_once(seed, cases) for seed in seeds}
    reference_seed = seeds[0]
    reference = results[reference_seed]["digests"]
    failures = 0
    for seed in seeds[1:]:
        digests = results[seed]["digests"]
        for name in sorted(set(reference) | set(digests)):
            want, got = reference.get(name), digests.get(name)
            if want == got:
                continue
            failures += 1
            print(
                f"MISMATCH: {name} — PYTHONHASHSEED={reference_seed} -> {want} "
                f"but PYTHONHASHSEED={seed} -> {got}"
            )
    if failures:
        print(
            f"FAIL: {failures} digest(s) depend on hash iteration order — "
            "some decision path reads str/bytes hash order"
        )
        return 1
    print(
        f"OK: {len(reference)} digest(s) bit-identical across "
        f"PYTHONHASHSEED={{{', '.join(str(s) for s in seeds)}}}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--cases", default=None, metavar="NAMES",
        help="comma-separated subset of the pinned cell names",
    )
    parser.add_argument(
        "--seeds", default=",".join(str(s) for s in DEFAULT_SEEDS),
        metavar="N,M", help="PYTHONHASHSEED values to compare",
    )
    args = parser.parse_args(argv)
    cases = [c for c in args.cases.split(",") if c] if args.cases else None
    seeds = tuple(int(s) for s in args.seeds.split(",") if s)
    if len(seeds) < 2:
        print("error: need at least two --seeds to compare", file=sys.stderr)
        return 2
    return run_canary(cases, seeds)
