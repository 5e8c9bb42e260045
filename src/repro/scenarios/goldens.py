"""The pinned cells: thirteen names, two pin files, one gate.

A *pinned cell* is a run whose determinism digest is committed.  There
are thirteen, in one fixed order (:func:`pinned_cells`):

* the six :func:`~repro.harness.digest.canonical_cases`, pinned in
  ``benchmarks/DIGEST_baseline.json``;
* the seven example scenarios under ``examples/scenarios/``, compiled,
  pinned in ``examples/scenarios/GOLDENS.json``.

Thirteen names run twelve distinct cells: ``baseline-steady`` and
``tmi/ms-src+ap@2`` compile to the same cell, so they pin the same
digest.  Both files, and ``tests/PINS.json``, keep one shape —
``{"environment", "digests"}``; ``perf/`` reads the two.

``python -m repro.scenarios goldens`` is the one gate: it runs every
pinned cell in one ``run_cells`` call and compares each name against the
file that pins it (see :mod:`repro.scenarios.cli`).  Per name the
verdict is :func:`golden_status`:

* ``ok`` — bit-identical: the cell's entire event order reproduced;
* ``MISMATCH`` — behaviour changed (a physics/model edit, or a real
  regression) — after an *intentional* change, ``python
  benchmarks/repin.py`` rewrites every pin and prints what moved;
* ``env-skip`` — the interpreter/numpy/arch differ from the environment
  the file records, where float-level comparison is meaningless;
* ``new`` — the name has no pin yet (fails the gate, so new examples
  cannot land ungated).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.harness.digest import canonical_cases, environment_fingerprint, environment_mismatch
from repro.harness.sweep import CellSpec
from repro.scenarios.compiler import CompiledScenario, compile_scenario
from repro.scenarios.loader import load_path, scenario_paths

_REPO = Path(__file__).resolve().parents[3]


def default_examples_dir() -> Path:
    return _REPO / "examples" / "scenarios"


def default_goldens_path() -> Path:
    return default_examples_dir() / "GOLDENS.json"


def default_baseline_path() -> Path:
    return _REPO / "benchmarks" / "DIGEST_baseline.json"


def load_examples(directory: Path) -> list[CompiledScenario]:
    """Compile every checked-in scenario; parse/schema errors are fatal."""
    return [compile_scenario(load_path(path), source=str(path))
            for path in scenario_paths(directory)]


def pinned_cells() -> dict[str, CellSpec]:
    """Every pinned cell by name: the canonical cases, then the examples."""
    cells = {
        name: CellSpec(
            config=cfg,
            failure_at=kwargs.get("failure_at"),
            failure_targets=(
                tuple(kwargs["failure_targets"]) if "failure_targets" in kwargs else None
            ),
        )
        for name, (cfg, kwargs) in canonical_cases().items()
    }
    for scn in load_examples(default_examples_dir()):
        cells[scn.scenario_id] = scn.spec
    return cells


def pin_files(names: list[str]) -> dict[Path, list[str]]:
    """``{pin file: the names it pins}`` for ``names``, files without
    one of them left out."""
    canonical = canonical_cases()
    files: dict[Path, list[str]] = {default_baseline_path(): [], default_goldens_path(): []}
    for name in names:
        files[default_baseline_path() if name in canonical else default_goldens_path()].append(name)
    return {path: group for path, group in files.items() if group}


def load_goldens(path: str | Path | None = None) -> dict[str, Any]:
    p = Path(path) if path is not None else default_goldens_path()
    if not p.is_file():
        return {"environment": None, "digests": {}}
    with open(p, encoding="utf-8") as fh:
        return json.load(fh)


def write_goldens(digests: dict[str, str], path: str | Path | None = None) -> Path:
    """Persist ``{name: digest}`` under the current environment."""
    p = Path(path) if path is not None else default_goldens_path()
    p.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "environment": environment_fingerprint(),
        "digests": dict(sorted(digests.items())),
    }
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return p


def golden_status(goldens: dict[str, Any], scenario_id: str, digest: str) -> str:
    """One of ``ok`` / ``MISMATCH`` / ``env-skip`` / ``new``."""
    if environment_mismatch(goldens.get("environment")):
        return "env-skip"
    want = goldens.get("digests", {}).get(scenario_id)
    if want is None:
        return "new"
    return "ok" if digest == want else "MISMATCH"
