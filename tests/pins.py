"""Shared by the tests that compare a run with a committed pin."""

from repro.harness.digest import environment_mismatch
from repro.scenarios.goldens import default_baseline_path, load_goldens


def on_recorded_build() -> bool:
    """Whether this python/numpy build is the one the pins were recorded
    on; float results are only comparable there."""
    return environment_mismatch(load_goldens(default_baseline_path())["environment"]) is None
