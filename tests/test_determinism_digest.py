"""Determinism digests: run-twice, serial-vs-parallel, and the golden
baseline that pins the kernel fast paths to the pre-optimisation engine.

These are the committed assertions behind the PR's "bit-identical"
claim: the digest covers every per-HAU tuple count, checkpoint-round
timeline and recovery breakdown, so any event-order perturbation in the
kernel shows up as a digest mismatch here.
"""

import json
from pathlib import Path

import pytest

from repro.harness import digest as digest_mod
from repro.harness.digest import (
    EXIT_SKIPPED,
    canonical_cases,
    canonical_json,
    combined_digest,
    environment_fingerprint,
    fingerprint_digest,
    result_digest,
    result_fingerprint,
)
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.sweep import CellSpec, run_cells

BASELINE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "DIGEST_baseline.json"

SMALL = dict(window=20.0, warmup=5.0, workers=6, spares=8, racks=2, seed=3)


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
    """Recompute one canonical case against the committed pre-PR digests.

    The baseline was produced by the *seed* (pre-fast-path) kernel, so
    this test is the committed proof that the free lists, kick pooling
    and store fast paths did not perturb the event order.  Skipped on
    hosts whose float environment differs from the recorded one.
    """
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline["environment"] != environment_fingerprint():
        pytest.skip("digest baseline was recorded under a different environment")
    cases = canonical_cases()
    name = "tmi/baseline@2"  # one case keeps the test cheap; CI runs all six
    cfg, kwargs = cases[name]
    got = result_digest(run_experiment(cfg, **kwargs))
    assert got == baseline["digests"][name], (
        f"digest for {name} drifted from the pre-fast-path baseline; "
        "the kernel changed the event order (or the model changed — if "
        "intentional, regenerate with `python -m repro.harness.digest --write`)"
    )


def test_digest_cli_says_when_it_did_not_check(tmp_path, monkeypatch, capsys):
    """0 = compared and equal, 1 = compared and different, 77 = the
    baseline was recorded on another build, so nothing was compared."""
    baseline = tmp_path / "DIGEST.json"
    args = ["--baseline", str(baseline), "--cases", "tmi/baseline@2"]
    assert digest_mod.main(args + ["--write"]) == 0
    assert digest_mod.main(args) == 0
    doc = json.loads(baseline.read_text())
    doc["digests"]["tmi/baseline@2"] = "0" * 64
    baseline.write_text(json.dumps(doc))
    assert digest_mod.main(args) == 1
    capsys.readouterr()
    foreign = dict(environment_fingerprint(), python="0.0.0")
    monkeypatch.setattr(digest_mod, "environment_fingerprint", lambda: foreign)
    assert digest_mod.main(args) == EXIT_SKIPPED == 77
    out = capsys.readouterr().out
    assert "digest check skipped: environment mismatch" in out and "MISMATCH:" not in out


def test_combined_digest_is_order_sensitive():
    assert combined_digest(["a", "b"]) != combined_digest(["b", "a"])


def test_fingerprint_digest_round_trips_through_json():
    cfg = small_config()
    fp = result_fingerprint(run_experiment(cfg))
    assert fingerprint_digest(fp) == fingerprint_digest(json.loads(canonical_json(fp)))
