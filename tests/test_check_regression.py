"""Unit tests for the CI regression gate (benchmarks/check_regression.py):
throughput gate, the latency gate and its dedicated exit code, backward
compatibility with latency-less baselines, the exact ``events_popped``
count and malformed reports."""

import importlib.util
import json
import sys
from pathlib import Path

_MOD_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _MOD_PATH)
check_regression = importlib.util.module_from_spec(_spec)
sys.modules["check_regression"] = check_regression
_spec.loader.exec_module(check_regression)


def _report(cells, mode="fast"):
    return {"mode": mode, "cells": cells}


def _cell(app="tmi", scheme="ms-src", n=0, throughput=1000.0, latency=2.0, **extra):
    cell = {
        "app": app,
        "scheme": scheme,
        "n_checkpoints": n,
        "throughput": throughput,
        "latency": latency,
    }
    cell.update(extra)
    return cell


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_identical_reports_pass(tmp_path):
    rep = _report([_cell(), _cell(scheme="baseline", throughput=400.0, latency=5.0)])
    cur = _write(tmp_path, "cur.json", rep)
    base = _write(tmp_path, "base.json", rep)
    assert check_regression.main([cur, "--baseline", base]) == check_regression.EXIT_OK


def test_throughput_regression_exits_1(tmp_path):
    base = _write(tmp_path, "base.json", _report([_cell(throughput=1000.0)]))
    cur = _write(tmp_path, "cur.json", _report([_cell(throughput=800.0)]))
    assert (
        check_regression.main([cur, "--baseline", base])
        == check_regression.EXIT_THROUGHPUT
    )
    # within tolerance passes
    cur_ok = _write(tmp_path, "cur_ok.json", _report([_cell(throughput=900.0)]))
    assert check_regression.main([cur_ok, "--baseline", base]) == check_regression.EXIT_OK


def test_latency_only_regression_exits_3(tmp_path):
    base = _write(tmp_path, "base.json", _report([_cell(latency=2.0)]))
    cur = _write(tmp_path, "cur.json", _report([_cell(latency=2.5)]))  # +25%
    assert (
        check_regression.main([cur, "--baseline", base])
        == check_regression.EXIT_LATENCY
    )
    # a custom latency tolerance can absorb it
    assert (
        check_regression.main(
            [cur, "--baseline", base, "--latency-tolerance", "0.30"]
        )
        == check_regression.EXIT_OK
    )


def test_throughput_regression_wins_over_latency(tmp_path):
    base = _write(tmp_path, "base.json", _report([_cell(throughput=1000.0, latency=2.0)]))
    cur = _write(tmp_path, "cur.json", _report([_cell(throughput=500.0, latency=9.0)]))
    assert (
        check_regression.main([cur, "--baseline", base])
        == check_regression.EXIT_THROUGHPUT
    )


def test_latency_improvement_passes(tmp_path):
    base = _write(tmp_path, "base.json", _report([_cell(latency=2.0)]))
    cur = _write(tmp_path, "cur.json", _report([_cell(latency=1.0)]))
    assert check_regression.main([cur, "--baseline", base]) == check_regression.EXIT_OK


def test_baseline_without_latency_skips_gate(tmp_path, capsys):
    base_cell = _cell()
    del base_cell["latency"]
    base = _write(tmp_path, "base.json", _report([base_cell]))
    cur = _write(tmp_path, "cur.json", _report([_cell(latency=99.0)]))
    assert check_regression.main([cur, "--baseline", base]) == check_regression.EXIT_OK
    assert "no latency, gate skipped" in capsys.readouterr().out


def test_current_missing_latency_is_a_latency_regression(tmp_path):
    base = _write(tmp_path, "base.json", _report([_cell(latency=2.0)]))
    cur_cell = _cell()
    del cur_cell["latency"]
    cur = _write(tmp_path, "cur.json", _report([cur_cell]))
    assert (
        check_regression.main([cur, "--baseline", base])
        == check_regression.EXIT_LATENCY
    )


def test_missing_cell_and_mode_mismatch_exit_1(tmp_path):
    base = _write(tmp_path, "base.json", _report([_cell(), _cell(scheme="oracle")]))
    cur = _write(tmp_path, "cur.json", _report([_cell()]))
    assert (
        check_regression.main([cur, "--baseline", base])
        == check_regression.EXIT_THROUGHPUT
    )
    cur_full = _write(tmp_path, "cur_full.json", _report([_cell()], mode="full"))
    assert (
        check_regression.main([cur_full, "--baseline", base])
        == check_regression.EXIT_THROUGHPUT
    )


def test_bad_invocation_exits_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert check_regression.main([missing]) == check_regression.EXIT_BAD_INVOCATION
    not_report = _write(tmp_path, "bad.json", {"hello": 1})
    assert (
        check_regression.main([not_report]) == check_regression.EXIT_BAD_INVOCATION
    )


def test_checked_in_baseline_has_latency_cells():
    """The shipped baseline carries per-cell latency, so the new gate is
    active (not silently skipped) in CI."""
    report = check_regression.load_report(str(check_regression.DEFAULT_BASELINE))
    lat = check_regression.cell_values(report, "latency")
    assert lat, "BENCH_baseline.json should carry per-cell latency"


# -- kernel microbenchmark: events_popped, exact ------------------------------

def _kernel(popped=272_490, mode="fast"):
    return {
        "mode": mode,
        "events_popped": popped,
        "pool_hits": 240_000,
        "pool_misses": 1_000,
    }


def _with_kernel(tmp_path, base_kernel, cur_kernel):
    rep = _report([_cell()])
    base = dict(rep)
    base["kernel"] = base_kernel
    base_path = _write(tmp_path, "base.json", base)
    cur_path = _write(tmp_path, "cur.json", rep)
    (tmp_path / "BENCH_kernel.json").write_text(json.dumps(cur_kernel))
    return cur_path, base_path


def test_kernel_events_popped_drift_fails_hard(tmp_path):
    cur, base = _with_kernel(tmp_path, _kernel(popped=272_490), _kernel(popped=272_491))
    assert (
        check_regression.main([cur, "--baseline", base])
        == check_regression.EXIT_THROUGHPUT
    )


def test_kernel_gate_skipped_without_report(tmp_path, capsys):
    base = dict(_report([_cell()]))
    base["kernel"] = _kernel()
    base_path = _write(tmp_path, "base.json", base)
    cur_path = _write(tmp_path, "cur.json", _report([_cell()]))
    assert check_regression.main([cur_path, "--baseline", base_path]) == check_regression.EXIT_OK
    assert "kernel gate skipped" in capsys.readouterr().out


def test_kernel_mode_mismatch_skips_comparison(tmp_path, capsys):
    cur, base = _with_kernel(tmp_path, _kernel(mode="full"), _kernel(popped=1, mode="fast"))
    assert check_regression.main([cur, "--baseline", base]) == check_regression.EXIT_OK
    assert "mode mismatch" in capsys.readouterr().out


def test_checked_in_baseline_has_kernel_fields():
    """The committed baseline pins the kernel's event count and records no
    host seconds anywhere: ``perf/`` is the one host-time instrument."""
    text = check_regression.DEFAULT_BASELINE.read_text(encoding="utf-8")
    assert json.loads(text)["kernel"]["events_popped"] > 0
    for key in ("wall_seconds", "events_per_sec", "build_seconds", "tuples_per_sec"):
        assert key not in text


def test_checked_in_baseline_has_critical_path_cells():
    report = check_regression.load_report(str(check_regression.DEFAULT_BASELINE))
    with_cp = [
        c
        for c in report["cells"]
        if c.get("critical_path_seconds", 0.0) > 0.0
    ]
    assert with_cp, (
        "BENCH_baseline.json should record critical_path_seconds for "
        "cells whose rounds completed"
    )


# ---------------------------------------------------------------------------
# malformed reports (exit 4): missing/mistyped gate fields fail loudly
# ---------------------------------------------------------------------------


def test_baseline_cell_missing_gate_field_exits_4(tmp_path, capsys):
    cur = _write(tmp_path, "cur.json", _report([_cell()]))
    bad_cell = {"app": "tmi", "scheme": "ms-src", "n_checkpoints": 0}  # no throughput
    base = _write(tmp_path, "base.json", _report([bad_cell]))
    assert (
        check_regression.main([cur, "--baseline", base])
        == check_regression.EXIT_BAD_BASELINE
    )
    err = capsys.readouterr().err
    assert "missing gate field(s) throughput" in err
    assert "base.json" in err
    assert "cells[0]" in err


def test_current_cell_missing_gate_field_exits_4(tmp_path, capsys):
    bad_cell = {"scheme": "ms-src", "n_checkpoints": 0, "throughput": 1.0}  # no app
    cur = _write(tmp_path, "cur.json", _report([bad_cell]))
    base = _write(tmp_path, "base.json", _report([_cell()]))
    assert (
        check_regression.main([cur, "--baseline", base])
        == check_regression.EXIT_BAD_BASELINE
    )
    err = capsys.readouterr().err
    assert "missing gate field(s) app" in err
    assert "cur.json" in err


def test_non_numeric_gate_field_exits_4(tmp_path, capsys):
    cur = _write(tmp_path, "cur.json", _report([_cell()]))
    base = _write(
        tmp_path, "base.json", _report([_cell(throughput="not-a-number")])
    )
    assert (
        check_regression.main([cur, "--baseline", base])
        == check_regression.EXIT_BAD_BASELINE
    )
    assert "non-numeric gate field" in capsys.readouterr().err


def test_non_dict_cell_exits_4(tmp_path, capsys):
    cur = _write(tmp_path, "cur.json", _report([_cell()]))
    base = _write(tmp_path, "base.json", _report(["oops"]))
    assert (
        check_regression.main([cur, "--baseline", base])
        == check_regression.EXIT_BAD_BASELINE
    )
    assert "cells[0] is not an object" in capsys.readouterr().err
