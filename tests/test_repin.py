"""``benchmarks/repin.py``, the one writer of every pin, on tmp paths.

The cells, the headline bench and the test values are stubs; the pin files,
the figure record, the bundle and the printed table are the command's own.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.scenarios import goldens as goldens_mod
from tests import pins

_REPO = Path(__file__).resolve().parent.parent
repin = pins.script("repin")

@pytest.fixture
def stubbed(tmp_path, monkeypatch):
    """``run(digests, popped=1000, value=...)``: one repin with these stub
    outputs; its printed lines.  Every file it writes is under ``pins/``."""
    out = tmp_path / "pins"
    out.mkdir()
    monkeypatch.setattr(goldens_mod, "default_baseline_path", lambda: out / "DIGEST.json")
    monkeypatch.setattr(goldens_mod, "default_goldens_path", lambda: out / "GOLDENS.json")
    monkeypatch.setattr(repin.check_regression, "DEFAULT_BASELINE", out / "BENCH_baseline.json")
    monkeypatch.setattr(repin.check_regression, "DEFAULT_BUNDLE", out / "BUNDLE_baseline")
    monkeypatch.setattr(repin.pins, "PIN_FILE", out / "PINS.json")
    cells = {"tmi/baseline@2": None, "rack-burst": None}
    monkeypatch.setattr(repin, "pinned_cells", lambda: cells)

    def run(capsys, digests, popped=1000, value="c" * 64):
        monkeypatch.setattr(repin, "run_cells", lambda specs, use_cache: [
            {"digest": d, "throughput": 7, "latency": 0.5, "rounds_completed": 2}
            for d in digests])

        def headline(artifact_dir):
            record = {"mode": "fast", "headline": {"gain": 0.2},
                      "cells": [{"app": "tmi", "scheme": "ms-src", "n_checkpoints": 1}]}
            (artifact_dir / "BENCH_headline.json").write_text(json.dumps(record))
            (artifact_dir / "BENCH_kernel.json").write_text(json.dumps({"events_popped": popped}))
            shutil.copytree(_REPO / "benchmarks" / "BUNDLE_baseline",
                            artifact_dir / "BUNDLE_headline")

        monkeypatch.setattr(repin, "headline", headline)
        monkeypatch.setattr(repin.pins, "compute", lambda tmp_dir: {
            "observed-run/telemetry-file": value})
        assert repin.main() == 0
        return capsys.readouterr().out.splitlines()

    return run


def files(directory):
    return {p: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def test_an_unchanged_tree_moves_nothing_and_rewrites_no_byte(stubbed, tmp_path, capsys):
    a, b = "a" * 64, "b" * 64
    first = stubbed(capsys, [a, b])
    assert first[-1] == "5 pin(s) moved"  # three new names, no record, no bundle
    assert f"  MOVED  tmi/baseline@2  None → {a}" in first
    written = files(tmp_path / "pins")
    assert [p.name for p in written] == [
        "BENCH_baseline.json", *(p.name for p in sorted(
            (_REPO / "benchmarks" / "BUNDLE_baseline").iterdir())),
        "DIGEST.json", "GOLDENS.json", "PINS.json"]

    again = stubbed(capsys, [a, b])
    assert files(tmp_path / "pins") == written
    assert again == [
        "pins",
        f"  ok     tmi/baseline@2  {a}",
        f"  ok     rack-burst  {b}",
        f"  ok     observed-run/telemetry-file  {'c' * 64}",
        "cells",
        "  tmi/baseline@2  throughput=7 latency=0.500000s rounds=2",
        "  rack-burst  throughput=7 latency=0.500000s rounds=2",
        "record (BENCH_baseline.json, BUNDLE_baseline)",
        "  unchanged",
        "0 pin(s) moved",
    ]


def test_a_planted_change_is_named(stubbed, tmp_path, capsys):
    a, b, moved = "a" * 64, "b" * 64, "d" * 64
    stubbed(capsys, [a, b])
    out = stubbed(capsys, [a, moved], popped=999)
    assert f"  MOVED  rack-burst  {b} → {moved}" in out
    assert "  kernel: events_popped 1000 → 999" in out
    assert out[-1] == "2 pin(s) moved"
    assert goldens_mod.load_goldens(tmp_path / "pins" / "GOLDENS.json")["digests"] == {
        "rack-burst": moved}
    out = stubbed(capsys, [a, moved], popped=999, value="e" * 64)
    assert f"  MOVED  observed-run/telemetry-file  {'c' * 64} → {'e' * 64}" in out
    assert out[-1] == "1 pin(s) moved"


def test_a_failed_run_rewrites_no_pin(stubbed, tmp_path, capsys, monkeypatch):
    stubbed(capsys, ["a" * 64, "b" * 64])
    written = files(tmp_path / "pins")

    def failing(artifact_dir):
        raise subprocess.CalledProcessError(1, "bench_headline.py")

    monkeypatch.setattr(repin, "run_cells", lambda specs, use_cache: [
        {"digest": "d" * 64, "throughput": 7, "latency": 0.5, "rounds_completed": 2}] * 2)
    monkeypatch.setattr(repin, "headline", failing)
    with pytest.raises(subprocess.CalledProcessError):
        repin.main()
    assert files(tmp_path / "pins") == written
    assert capsys.readouterr().out == ""


def test_check_skips_off_the_recorded_build_and_fails_naming_the_command(
        tmp_path, monkeypatch):
    from repro.harness import digest as digest_mod

    path = tmp_path / "PINS.json"
    goldens_mod.write_goldens({"run/value": "a" * 64}, path)
    pins.check("run/value", "a" * 64, path)
    with pytest.raises(AssertionError, match="re-pin with python benchmarks/repin.py"):
        pins.check("run/value", "b" * 64, path)
    with pytest.raises(AssertionError, match="re-pin with python benchmarks/repin.py"):
        pins.check("run/other", "a" * 64, path)  # a name with no pin
    with pytest.raises(AssertionError, match="missing; re-pin with python benchmarks/repin.py"):
        pins.check("run/value", "a" * 64, tmp_path / "gone.json")
    foreign = dict(digest_mod.environment_fingerprint(), numpy="0.0.0")
    monkeypatch.setattr(digest_mod, "environment_fingerprint", lambda: foreign)
    with pytest.raises(pytest.skip.Exception, match="different python/numpy build"):
        pins.check("run/value", "b" * 64, path)
    # a pin with no simulated float in it is compared on every build
    [every] = pins.EVERY_BUILD
    goldens_mod.write_goldens({every: "a" * 64}, path)
    pins.check(every, "a" * 64, path)
    with pytest.raises(AssertionError, match="re-pin with python benchmarks/repin.py"):
        pins.check(every, "b" * 64, path)
