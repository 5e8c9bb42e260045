"""make_scheme builds the configured scheme with its derived parameters.

Every ``SCHEME_NAMES`` entry × ``n_checkpoints`` {0, 3} × ``enable_recovery``
{False, True}, plus oracle with and without ``oracle_times``: the class and
the derived attributes are pinned as literals (window 150 s, warm-up 30 s),
so moving where a scheme's parameters are computed cannot change them.
The registry itself (``repro.core.SCHEMES``) must name every scheme, or
``repro.core`` does not import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    SCHEMES,
    BaselineScheme,
    CostModel,
    MSSrc,
    MSSrcAP,
    MSSrcAPAA,
    OracleScheme,
)
from repro.dsps.runtime import CheckpointScheme
from repro.harness.experiment import ExperimentConfig, make_scheme
from repro.vocabulary import SCHEME_NAMES

ATTRS = (
    "checkpoint_times", "checkpoint_period", "start_after", "profile_duration",
    "sample_interval", "max_rounds", "enable_recovery", "costs",
)
ABSENT = object()
COSTS = CostModel(ping_interval=0.5)
WINDOW = dict(window=150.0, warmup=30.0)


def expected(scheme, n, recovery, oracle_times=None):
    """(class, attribute values) for one configuration."""
    times = [55.0, 105.0, 155.0] if n else []
    common = {"enable_recovery": recovery, "costs": COSTS}
    if scheme == "none":
        return CheckpointScheme, {}
    if scheme == "baseline":
        return BaselineScheme, {
            **common, "checkpoint_period": 50.0 if n else None, "start_after": 30.0,
        }
    if scheme == "ms-src+ap+aa":
        return MSSrcAPAA, {
            **common, "checkpoint_times": [], "checkpoint_period": 50.0 if n else 150.0,
            "profile_duration": 24.0, "sample_interval": 1.25 if n else 3.75,
            "max_rounds": 3 if n else 0,
        }
    if scheme == "oracle":
        return OracleScheme, {**common, "checkpoint_times": oracle_times or times}
    return {"ms-src": MSSrc, "ms-src+ap": MSSrcAP}[scheme], {**common, "checkpoint_times": times}


CASES = [
    (scheme, n, recovery, None)
    for scheme in SCHEME_NAMES
    for n in (0, 3)
    for recovery in (False, True)
] + [("oracle", 3, False, [40.0, 90.0]), ("oracle", 0, True, [40.0])]


@pytest.mark.parametrize("scheme, n, recovery, oracle_times", CASES)
def test_make_scheme_matches_the_pinned_parameters(scheme, n, recovery, oracle_times):
    cfg = ExperimentConfig(
        app="tmi", scheme=scheme, n_checkpoints=n, enable_recovery=recovery,
        oracle_times=oracle_times, costs=COSTS, **WINDOW,
    )
    cls, attrs = expected(scheme, n, recovery, oracle_times)
    built = make_scheme(cfg)
    assert type(built) is cls and built.name == scheme
    got = {a: getattr(built, a, ABSENT) for a in ATTRS}
    assert got == {a: attrs.get(a, ABSENT) for a in ATTRS}


def test_default_costs_are_a_fresh_default_model():
    built = make_scheme(ExperimentConfig(app="tmi", scheme="ms-src", n_checkpoints=1))
    assert built.costs == CostModel()


def test_registry_is_keyed_by_each_class_name():
    assert sorted(SCHEMES) == sorted(SCHEME_NAMES)
    assert all(cls.name == name for name, cls in SCHEMES.items())


def test_a_name_missing_from_the_registry_fails_at_import():
    code = (
        "import repro.vocabulary as v\n"
        "v.SCHEME_NAMES = v.SCHEME_NAMES + ('hybrid',)\n"
        "import repro.core\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode != 0
    assert "ImportError: scheme registry" in proc.stderr and "'hybrid'" in proc.stderr
