"""Per-scenario digest goldens: the campaign's regression memory.

``examples/scenarios/GOLDENS.json`` commits the determinism digest of
every checked-in scenario next to the environment fingerprint it was
produced under.  The campaign runner compares each example scenario's
fresh digest against its golden:

* ``ok`` — bit-identical: the scenario's entire event order reproduced;
* ``MISMATCH`` — behaviour changed (a physics/model edit, or a real
  regression) — regenerate with ``python -m repro.scenarios goldens
  --write`` after an *intentional* change;
* ``env-skip`` — the interpreter/numpy/arch differ from the recorded
  environment, where float-level comparison is meaningless (same rule
  as ``benchmarks/DIGEST_baseline.json``);
* ``new`` — the scenario has no golden yet (fails the strict gate so
  new examples cannot land ungated).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.harness.digest import environment_fingerprint, environment_mismatch


def default_goldens_path() -> Path:
    return Path(__file__).resolve().parents[3] / "examples" / "scenarios" / "GOLDENS.json"


def load_goldens(path: str | Path | None = None) -> dict[str, Any]:
    p = Path(path) if path is not None else default_goldens_path()
    if not p.is_file():
        return {"environment": None, "digests": {}}
    with open(p, encoding="utf-8") as fh:
        return json.load(fh)


def write_goldens(digests: dict[str, str], path: str | Path | None = None) -> Path:
    """Persist ``{scenario_id: digest}`` under the current environment."""
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
