"""Unit tests for the exact check of the headline artifacts
(benchmarks/check_regression.py): the fresh ``{mode, cells, headline, kernel}``
record must equal the committed one and ``BUNDLE_headline`` must hash as
``BUNDLE_baseline`` does, with one named line per difference; bad input exits
2, a baseline from another build 77, and ``record`` (the writer
``benchmarks/repin.py`` calls) returns the differences and re-records both."""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.harness.digest import EXIT_SKIPPED, canonical_json, environment_fingerprint
from repro.inspect import bundle_id, read_bundle, write_bundle
from tests import pins

_REPO = Path(__file__).resolve().parent.parent
check_regression = pins.script("check_regression")
COMMITTED = json.loads(check_regression.DEFAULT_BASELINE.read_text(encoding="utf-8"))


def _cell(scheme="ms-src", throughput=1000, latency=2.0, **extra):
    return {"app": "tmi", "scheme": scheme, "n_checkpoints": 3, "throughput": throughput,
            "latency": latency, "rounds_completed": 2, **extra}


def _record(*cells, mode="fast", popped=74_166):
    return {"mode": mode, "cells": list(cells) or [_cell(), _cell("baseline", 400, 5.0)],
            "headline": {"src_thpt_gain_0ckpt": 0.22},
            "kernel": {"mode": mode, "events_popped": popped, "pool_misses": 148}}


def _with_throughput(directory, throughput):
    """The bundle at ``directory`` with one file, metrics.json, changed."""
    bundle = read_bundle(directory)
    metrics = bundle["files"]["metrics.json"]
    metrics["throughput"] = throughput
    hashes = bundle["manifest"]["files"]
    hashes["metrics.json"] = hashlib.sha256((canonical_json(metrics) + "\n").encode()).hexdigest()
    bundle["manifest"]["bundle_id"] = bundle_id(hashes)
    return bundle


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """``gate(current, baseline)``: commit one record, write one as the bench does, check
    (or, with ``record=True``, re-record and return the difference lines).  The bench's
    bundle and the committed one are copies of ``BUNDLE_baseline``."""
    monkeypatch.setattr(check_regression, "DEFAULT_BASELINE", tmp_path / "BENCH_baseline.json")
    monkeypatch.setattr(check_regression, "DEFAULT_BUNDLE", tmp_path / "BUNDLE_baseline")
    for name in ("BUNDLE_headline", "BUNDLE_baseline"):
        shutil.copytree(_REPO / "benchmarks" / "BUNDLE_baseline", tmp_path / name)

    def run(current, baseline=None, record=False):
        committed = {"environment": environment_fingerprint(), **(baseline or _record())}
        check_regression.DEFAULT_BASELINE.write_text(json.dumps(committed))
        headline = {k: v for k, v in current.items() if k != "kernel"}
        headline["sweep_stats"] = {"cache_hits": 7}  # cache state: never compared
        (tmp_path / "BENCH_headline.json").write_text(json.dumps(headline))
        (tmp_path / "BENCH_kernel.json").write_text(json.dumps(current["kernel"]))
        if record:
            return check_regression.record(tmp_path)
        return check_regression.main([str(tmp_path)])

    return run


def test_identical_reports_pass(gate, capsys):
    assert gate(_record()) == 0
    assert "OK: 2 cells, headline, kernel and bundle bit-identical" in capsys.readouterr().out


def test_changed_bundle_file_exits_1_and_names_it(gate, tmp_path, capsys):
    headline = tmp_path / "BUNDLE_headline"
    old = read_bundle(headline)["manifest"]["files"]["metrics.json"]
    changed = _with_throughput(headline, 1.0)
    write_bundle(changed, tmp_path, name="BUNDLE_headline")
    assert gate(_record()) == 1
    new = changed["manifest"]["files"]["metrics.json"]
    assert capsys.readouterr().out.splitlines() == [
        f"  bundle: metrics.json {old!r} → {new!r}",
        "FAIL: 1 difference(s); if intended, re-pin with python benchmarks/repin.py"]


def test_missing_or_corrupt_bundle_exits_2(gate, tmp_path, capsys):
    headline = tmp_path / "BUNDLE_headline"
    (headline / "metrics.json").write_text("{}\n")  # the manifest still hashes the old one
    assert gate(_record()) == 2
    assert "the bundle is corrupt" in capsys.readouterr().err
    shutil.rmtree(headline)
    assert gate(_record()) == 2
    assert "BUNDLE_headline: not a bundle directory" in capsys.readouterr().err
    shutil.rmtree(check_regression.DEFAULT_BUNDLE)  # nor may the committed one be missing
    shutil.copytree(_REPO / "benchmarks" / "BUNDLE_baseline", headline)
    assert gate(_record()) == 2


def test_write_re_records_the_bundle(gate, tmp_path, capsys):
    old = read_bundle(tmp_path / "BUNDLE_headline")["manifest"]["files"]["metrics.json"]
    changed = _with_throughput(tmp_path / "BUNDLE_headline", 1.0)
    write_bundle(changed, tmp_path, name="BUNDLE_headline")
    new = changed["manifest"]["files"]["metrics.json"]
    assert gate(_record(), record=True) == [f"bundle: metrics.json {old!r} → {new!r}"]
    assert capsys.readouterr().out == ""  # repin.py prints the table
    assert read_bundle(tmp_path / "BUNDLE_baseline") == changed
    assert check_regression.main([str(tmp_path)]) == 0
    shutil.rmtree(tmp_path / "BUNDLE_baseline")  # nothing committed: it still records
    [line] = check_regression.record(tmp_path)
    assert line.startswith("no committed bundle to compare: ")
    assert read_bundle(tmp_path / "BUNDLE_baseline") == changed


def test_throughput_regression_exits_1(gate, capsys):
    assert gate(_record(_cell(throughput=900), _cell("baseline", 400, 5.0))) == 1  # -10 %
    assert "tmi/ms-src@3: throughput 1000 → 900" in capsys.readouterr().out


def test_throughput_gain_and_rounds_completed_drift_exit_1(gate, capsys):
    assert gate(_record(_cell(throughput=1500), _cell("baseline", 400, 5.0))) == 1  # +50 %
    assert "tmi/ms-src@3: throughput 1000 → 1500" in capsys.readouterr().out
    assert gate(_record(_cell(rounds_completed=0), _cell("baseline", 400, 5.0))) == 1
    assert "tmi/ms-src@3: rounds_completed 2 → 0" in capsys.readouterr().out


def test_current_missing_latency_is_a_latency_regression(gate, capsys):
    cell = {k: v for k, v in _cell().items() if k != "latency"}
    assert gate(_record(cell, _cell("baseline", 400, 5.0))) == 1
    assert "tmi/ms-src@3: latency 2.0 → '<none>'" in capsys.readouterr().out


def test_latency_improvement_passes(gate, tmp_path):
    """Only once re-recorded: ``record`` stores the record under this build."""
    faster = _record(_cell(latency=1.0), _cell("baseline", 400, 5.0))
    assert gate(faster) == 1
    assert gate(faster, record=True) == ["tmi/ms-src@3: latency 2.0 → 1.0"]
    written = json.loads(check_regression.DEFAULT_BASELINE.read_text())
    assert written == {"environment": environment_fingerprint(), **faster}
    assert check_regression.main([str(tmp_path)]) == 0


def test_write_prints_what_it_moves_then_records(gate):
    moved = _record(popped=74_000)
    moved["kernel"]["pool_misses"] = 113
    assert gate(moved, record=True) == ["kernel: events_popped 74166 → 74000",
                                        "kernel: pool_misses 148 → 113"]
    written = json.loads(check_regression.DEFAULT_BASELINE.read_text())
    assert written == {"environment": environment_fingerprint(), **moved}
    check_regression.DEFAULT_BASELINE.unlink()  # nothing committed: it still records
    [line] = check_regression.record(check_regression.DEFAULT_BASELINE.parent)
    assert line.startswith("no committed record to compare: ")
    assert json.loads(check_regression.DEFAULT_BASELINE.read_text()) == written


def test_missing_cell_and_mode_mismatch_exit_1(gate, capsys):
    assert gate(_record(_cell())) == 1
    assert "tmi/baseline@3: missing cell" in capsys.readouterr().out
    assert gate(_record(mode="full"), _record()) == 1
    out = capsys.readouterr().out
    assert "record: mode 'fast' → 'full'" in out and "kernel: mode 'fast' → 'full'" in out


def test_new_cell_and_headline_drift_exit_1(gate, capsys):
    assert gate(_record(), _record(_cell())) == 1
    assert "tmi/baseline@3: new cell" in capsys.readouterr().out
    current = _record()
    current["headline"]["src_thpt_gain_0ckpt"] = 0.23
    assert gate(current) == 1
    assert "headline: src_thpt_gain_0ckpt 0.22 → 0.23" in capsys.readouterr().out


def test_kernel_events_popped_drift_fails_hard(gate, capsys):
    assert gate(_record(popped=74_167)) == 1
    assert "kernel: events_popped 74166 → 74167" in capsys.readouterr().out


def test_bad_invocation_exits_2(gate, tmp_path):
    with pytest.raises(SystemExit) as exc:
        check_regression.main([])
    assert exc.value.code == 2
    assert check_regression.main([str(tmp_path / "nope")]) == 2
    assert gate({"hello": 1, "kernel": {}}) == 2
    assert gate(_record(), {"hello": 1}) == 2
    assert gate(_record(_cell(), _cell())) == 2  # one cell listed twice
    assert gate(_record({"scheme": "ms-src", "n_checkpoints": 0})) == 2  # a cell without app


def test_missing_kernel_report_exits_2(gate, tmp_path):
    gate(_record())
    (tmp_path / "BENCH_kernel.json").unlink()
    assert check_regression.main([str(tmp_path)]) == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_number_exits_2(gate, value):
    assert gate(_record(_cell(critical_path_seconds=value))) == 2
    assert gate(_record(), _record(_cell(critical_path_seconds=value))) == 2


def test_foreign_environment_exits_77(gate, capsys):
    foreign = {**_record(), "environment": {**environment_fingerprint(), "python": "3.12.4"}}
    assert gate(_record(popped=1), foreign) == EXIT_SKIPPED  # nothing compared
    assert "environment mismatch" in capsys.readouterr().out


def test_checked_in_baseline_has_latency_cells():
    """Every committed cell names itself and carries latency and its tail."""
    check_regression._cells({k: v for k, v in COMMITTED.items() if k != "environment"},
                            check_regression.DEFAULT_BASELINE)
    assert all({"latency", "latency_p99"} <= cell.keys() for cell in COMMITTED["cells"])


def test_checked_in_baseline_has_kernel_fields():
    """The committed baseline pins the kernel's counts and records no host
    seconds anywhere: ``perf/`` is the one host-time instrument."""
    assert COMMITTED["kernel"]["events_popped"] > 0
    for key in ("wall_seconds", "events_per_sec", "build_seconds", "tuples_per_sec"):
        assert key not in json.dumps(COMMITTED)


def test_checked_in_baseline_has_critical_path_cells():
    """Cells whose rounds completed record their critical path."""
    assert any(c["critical_path_seconds"] > 0.0 for c in COMMITTED["cells"])


def test_committed_records_share_one_environment():
    """Every pin file and the figure record were recorded on one build, the one
    ``benchmarks/repin.py`` last ran on."""
    pins = [_REPO / "benchmarks" / "DIGEST_baseline.json",
            _REPO / "examples" / "scenarios" / "GOLDENS.json", _REPO / "tests" / "PINS.json"]
    environments = [json.loads(p.read_text(encoding="utf-8"))["environment"] for p in pins]
    assert environments == [COMMITTED["environment"]] * 3
