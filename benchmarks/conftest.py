"""Shared fixtures for the benchmark suite.

The Fig. 12 / Fig. 13 / headline benches all consume the same
(expensive) scheme x checkpoint-count sweep; it is computed once per
session through the session-scoped ``get_sweep`` fixture (no module
globals, so ``pytest -p no:cacheprovider`` reruns and parallel sessions
stay independent).

Scale is an argument, not a mode: every bench takes the session
``scale`` fixture and passes its window and warm-up to what it runs,
and writes its ``mode`` into its artifact.  ``REPRO_FULL=1`` picks
:data:`FULL` (paper-scale 600 s windows) as that fixture's value; the
default is :data:`FAST` (150 s windows with state sizes scaled
accordingly — see DESIGN.md).  This file is the one reader of the
variable; ``ExperimentConfig()`` does not depend on the environment.

Set ``REPRO_ARTIFACT_DIR`` to a directory to make benches write their
machine-readable results (``BENCH_*.json``) and trace artifacts there —
this is how CI collects the smoke-bench output for the regression gate.

The sweep fans out through :func:`repro.harness.sweep.run_cells`:
``REPRO_JOBS`` sets the worker count (default: all cores) and
``REPRO_CACHE_DIR`` relocates the content-addressed result cache
(default ``.repro-cache/`` at the repo root).  Cached cells are
byte-identical to freshly computed ones, so the gate numbers do not
depend on cache state; the per-session cache traffic is recorded in the
``BENCH_headline.json`` artifact under ``sweep_stats``.
"""

import json
import os
from dataclasses import dataclass

import pytest

from repro.harness.figures import fig12_fig13_sweep
from repro.harness.sweep import SweepStats

SWEEP_COUNTS = [0, 1, 3, 5, 8]
SWEEP_APPS = ["tmi", "bcp", "signalguru"]


@dataclass(frozen=True)
class Scale:
    """A measurement scale: its artifact label, window and warm-up (s)."""

    mode: str
    window: float
    warmup: float


FAST = Scale("fast", 150.0, 30.0)
FULL = Scale("full", 600.0, 60.0)


def scale_from_env() -> Scale:
    return FULL if os.environ.get("REPRO_FULL", "0") not in ("", "0") else FAST


@pytest.fixture(scope="session")
def scale():
    """The session's scale: :data:`FULL` under ``REPRO_FULL=1``, else :data:`FAST`."""
    return scale_from_env()


@pytest.fixture(scope="session")
def sweep_cache():
    """Session-lifetime storage for the expensive sweep result."""
    return {}


@pytest.fixture(scope="session")
def sweep_stats():
    """Runner/cache statistics accumulated by the session's sweeps."""
    return SweepStats()


@pytest.fixture(scope="session")
def get_sweep(sweep_cache, sweep_stats, scale):
    """A compute-or-cached thunk, so the first bench to call it still
    times the real computation under ``benchmark.pedantic``."""

    def _get():
        if "sweep" not in sweep_cache:
            sweep_cache["sweep"] = fig12_fig13_sweep(
                apps=SWEEP_APPS, checkpoint_counts=SWEEP_COUNTS,
                window=scale.window, warmup=scale.warmup, stats=sweep_stats,
            )
        return sweep_cache["sweep"]

    return _get


@pytest.fixture(scope="session")
def sweep(get_sweep):
    return get_sweep()


@pytest.fixture(scope="session")
def artifact_dir():
    """Where to drop machine-readable bench output; None disables it."""
    path = os.environ.get("REPRO_ARTIFACT_DIR", "")
    if not path:
        return None
    os.makedirs(path, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def write_artifact(artifact_dir):
    """Writer for ``BENCH_*.json`` artifacts (no-op without the env var)."""

    def _write(name: str, payload) -> str | None:
        if artifact_dir is None:
            return None
        path = os.path.join(artifact_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    return _write


def pytest_configure(config):
    scale = scale_from_env()
    print(f"\n[repro benchmarks] measurement mode: {scale.mode} ({scale.window:g}s windows)")
