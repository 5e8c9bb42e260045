"""Determinism digests: run-twice, serial-vs-parallel, and the pin gate.

The digest covers every per-HAU tuple count, checkpoint-round timeline
and recovery breakdown, so any event-order perturbation in the kernel
shows up as a digest mismatch.  Every pinned cell is compared with its
pin in ``test_live_equals_fold.py``; here, one canonical case against
its pin, and the gate's exit codes.
"""

import json

from repro.harness import digest as digest_mod
from repro.harness.digest import (
    EXIT_SKIPPED,
    canonical_cases,
    canonical_json,
    environment_fingerprint,
    fingerprint_digest,
    result_digest,
    result_fingerprint,
)
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.sweep import CellSpec, run_cells
from repro.scenarios import cli
from repro.scenarios import goldens as goldens_mod
from tests import pins

SMALL = dict(window=20.0, warmup=5.0, workers=6, spares=8, racks=2, seed=3)
repin = pins.script("repin")


def small_config(scheme="ms-src", n=1, **over):
    kwargs = dict(SMALL)
    kwargs.update(over)
    return ExperimentConfig(
        app="tmi", scheme=scheme, n_checkpoints=n,
        app_params={"n_minutes": 0.25}, **kwargs,
    )


def test_same_config_twice_is_bit_identical():
    cfg = small_config()
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert result_fingerprint(first) == result_fingerprint(second)
    assert result_digest(first) == result_digest(second)


def test_different_seed_changes_digest():
    """The digest actually discriminates — it is not a constant."""
    a = result_digest(run_experiment(small_config(seed=3)))
    b = result_digest(run_experiment(small_config(seed=4)))
    assert a != b


def test_serial_and_parallel_sweeps_are_identical(tmp_path):
    """jobs=1 in-process and jobs=2 subprocess fan-out must agree byte
    for byte — per-cell digests and full payloads."""
    specs = [
        CellSpec(config=small_config(scheme="baseline", n=1)),
        CellSpec(config=small_config(scheme="ms-src", n=1)),
        CellSpec(config=small_config(scheme="ms-src+ap", n=2)),
    ]
    serial = run_cells(specs, jobs=1, use_cache=False)
    parallel = run_cells(specs, jobs=2, use_cache=False)
    assert serial == parallel
    assert [p["digest"] for p in serial] == [p["digest"] for p in parallel]
    # the engine's own work is deterministic too
    assert [p["kernel"]["events_popped"] for p in serial] == [
        p["kernel"]["events_popped"] for p in parallel
    ]


def test_canonical_json_is_stable():
    obj = {"b": 1, "a": [1.5, {"z": None, "y": "x"}]}
    assert canonical_json(obj) == canonical_json(json.loads(canonical_json(obj)))


def test_golden_digest_baseline():
    """Recompute one canonical case against its committed pin: the cheap
    standing proof that the kernel's fast paths did not perturb the event
    order.  Skipped on hosts whose float environment differs from the
    recorded one.
    """
    name = "tmi/baseline@2"  # one case keeps the test cheap; the gate runs all
    cfg, kwargs = canonical_cases()[name]
    got = result_digest(run_experiment(cfg, **kwargs))
    pins.check(name, got, goldens_mod.default_baseline_path())


def test_digest_cli_says_when_it_did_not_check(tmp_path, monkeypatch, capsys):
    """The pin gate: 0 = compared and equal, 1 = compared and different,
    2 = a pin file is missing (nothing was compared, and that is an
    error), 77 = the pins were recorded on another build, so nothing
    was compared."""
    baseline = tmp_path / "DIGEST.json"
    monkeypatch.setattr(goldens_mod, "default_baseline_path", lambda: baseline)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    args = ["goldens", "--cases", "tmi/baseline@2"]
    assert cli.main(args) == 2
    assert f"pin file {baseline}" in capsys.readouterr().err
    [(_, was, digest)] = repin.write_digests(
        repin.run({"tmi/baseline@2": goldens_mod.pinned_cells()["tmi/baseline@2"]}))
    assert was is None
    assert cli.main(args) == 0
    doc = json.loads(baseline.read_text())
    assert doc == {"environment": environment_fingerprint(), "digests": {"tmi/baseline@2": digest}}
    doc["digests"]["tmi/baseline@2"] = "0" * 64
    baseline.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(args) == 1
    assert "MISMATCH: tmi/baseline@2" in capsys.readouterr().out
    foreign = dict(environment_fingerprint(), python="0.0.0")
    monkeypatch.setattr(digest_mod, "environment_fingerprint", lambda: foreign)
    assert cli.main(args) == EXIT_SKIPPED == 77
    out = capsys.readouterr().out
    assert "goldens check skipped: environment mismatch" in out and "MISMATCH:" not in out


def test_fingerprint_digest_round_trips_through_json():
    cfg = small_config()
    fp = result_fingerprint(run_experiment(cfg))
    assert fingerprint_digest(fp) == fingerprint_digest(json.loads(canonical_json(fp)))
