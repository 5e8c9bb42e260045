#!/usr/bin/env python3
"""Re-pin every committed value from this build and print what moved.

``python benchmarks/repin.py`` takes no flags and uses no result cache.  It

1. runs the thirteen pinned cells (``repro.scenarios.goldens.pinned_cells()``)
   in one ``run_cells`` call;
2. runs ``pytest benchmarks/bench_headline.py`` as CI does, its artifacts in
   a temporary directory;
3. computes the eight test values of ``tests/pins.py``;
4. only then rewrites the pins: ``benchmarks/BENCH_baseline.json`` and
   ``benchmarks/BUNDLE_baseline`` from the artifacts
   (``check_regression.record``), ``benchmarks/DIGEST_baseline.json`` and
   ``examples/scenarios/GOLDENS.json`` from the cells, ``tests/PINS.json``
   from the test values;
5. prints one table: each pinned name's old → new value, the thirteen
   cells' throughput, latency and rounds, the record's difference lines,
   and ``N pin(s) moved``.

A run that fails therefore leaves every pin file as it was.  On an unchanged
tree and the recorded build it moves nothing and rewrites no byte.  The
gates only check: ``python -m repro.scenarios goldens``,
``benchmarks/check_regression.py`` and tier-1.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.harness.sweep import run_cells
from repro.scenarios.goldens import load_goldens, pin_files, pinned_cells, write_goldens

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))
from tests import pins  # noqa: E402  (the repo root is not on the path of a script)

check_regression = pins.script("check_regression")


def rewrite(path: Path, values: dict[str, str]) -> list[tuple[str, str | None, str]]:
    """Write ``values`` as ``path``'s pins; ``(name, old, new)`` per name."""
    old = load_goldens(path)["digests"]
    write_goldens(values, path)
    return [(name, old.get(name), value) for name, value in values.items()]


def run(cells: dict) -> dict[str, dict]:
    """``cells``' payloads by name, from one uncached ``run_cells`` call."""
    return dict(zip(cells, run_cells(list(cells.values()), use_cache=False)))


def write_digests(payloads: dict[str, dict]) -> list[tuple[str, str | None, str]]:
    """Rewrite each digest pin file with its own names' digests; the rows."""
    rows = []
    for path, names in sorted(pin_files(list(payloads)).items()):
        rows += rewrite(path, {name: payloads[name]["digest"] for name in names})
    return rows


def headline(artifact_dir: Path) -> None:
    """The headline bench as CI runs it, its artifacts and cache in ``artifact_dir``."""
    env = dict(os.environ, REPRO_ARTIFACT_DIR=str(artifact_dir),
               REPRO_CACHE_DIR=str(artifact_dir / "cache"))
    subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/bench_headline.py", "-q",
         "-p", "no:cacheprovider"],
        cwd=REPO, env=env, check=True, stdout=sys.stderr,
    )


def table(rows, payloads: dict[str, dict], record_lines: list[str]) -> list[str]:
    """The printout: every pin, the cells, the record, then the count."""
    lines = ["pins"]
    for name, old, new in rows:
        lines.append(f"  ok     {name}  {new}" if old == new
                     else f"  MOVED  {name}  {old} → {new}")
    lines.append("cells")
    lines += [f"  {name}  throughput={p['throughput']} latency={p['latency']:.6f}s "
              f"rounds={p['rounds_completed']}" for name, p in payloads.items()]
    lines.append("record (BENCH_baseline.json, BUNDLE_baseline)")
    lines += [f"  {line}" for line in record_lines] or ["  unchanged"]
    moved = sum(old != new for _, old, new in rows) + len(record_lines)
    return lines + [f"{moved} pin(s) moved"]


def main() -> int:
    payloads = run(pinned_cells())
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = Path(tmp)
        headline(tmp_dir)
        values = pins.compute(tmp_dir)
        # Every run has finished: only now is any pin file rewritten.
        record_lines = check_regression.record(tmp_dir)
    rows = write_digests(payloads) + rewrite(pins.PIN_FILE, values)
    print("\n".join(table(rows, payloads, record_lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
