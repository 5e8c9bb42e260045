"""Unit tests for the CI regression gate (benchmarks/check_regression.py):
throughput gate, the latency gate and its dedicated exit code, and
backward compatibility with latency-less baselines."""

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


# -- kernel microbenchmark gate (warn-only wall clock; hard events_popped) ----

def _kernel(wall=2.0, eps=100_000.0, popped=272_490, mode="fast"):
    return {
        "mode": mode,
        "wall_seconds": wall,
        "events_per_sec": eps,
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


def test_kernel_wall_regression_is_warn_only(tmp_path, capsys):
    cur, base = _with_kernel(tmp_path, _kernel(wall=1.0, eps=200_000.0), _kernel(wall=3.0, eps=50_000.0))
    assert check_regression.main([cur, "--baseline", base]) == check_regression.EXIT_OK
    out = capsys.readouterr().out
    assert "warn-only" in out
    assert "wall_seconds" in out and "events_per_sec" in out


def test_kernel_wall_within_tolerance_is_silent(tmp_path, capsys):
    cur, base = _with_kernel(tmp_path, _kernel(wall=2.0), _kernel(wall=2.2))
    assert check_regression.main([cur, "--baseline", base]) == check_regression.EXIT_OK
    assert "warn-only" not in capsys.readouterr().out


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
    report = check_regression.load_report(str(check_regression.DEFAULT_BASELINE))
    kernel = report.get("kernel")
    assert kernel, "BENCH_baseline.json should carry the kernel microbench fields"
    for key in ("wall_seconds", "events_per_sec", "events_popped"):
        assert key in kernel


def test_critical_path_growth_is_warn_only(tmp_path, capsys):
    base = _write(
        tmp_path, "base.json", _report([_cell(critical_path_seconds=1.0)])
    )
    cur = _write(
        tmp_path, "cur.json", _report([_cell(critical_path_seconds=2.0)])
    )
    assert check_regression.main([cur, "--baseline", base]) == check_regression.EXIT_OK
    out = capsys.readouterr().out
    assert "critical path" in out and "warn-only" in out


def test_critical_path_within_tolerance_is_silent(tmp_path, capsys):
    base = _write(
        tmp_path, "base.json", _report([_cell(critical_path_seconds=1.0)])
    )
    cur = _write(
        tmp_path, "cur.json", _report([_cell(critical_path_seconds=1.1)])
    )
    assert check_regression.main([cur, "--baseline", base]) == check_regression.EXIT_OK
    assert "critical path" not in capsys.readouterr().out


def test_critical_path_gate_skips_missing_and_zero_cells(tmp_path, capsys):
    # baseline without the field, a zero baseline (no round completed),
    # and a current report missing the field: all silently skipped
    base = _write(
        tmp_path,
        "base.json",
        _report([
            _cell(scheme="ms-src"),
            _cell(scheme="ms-src+ap", critical_path_seconds=0.0),
            _cell(scheme="ms-src+ap+aa", critical_path_seconds=1.0),
        ]),
    )
    cur = _write(
        tmp_path,
        "cur.json",
        _report([
            _cell(scheme="ms-src", critical_path_seconds=9.0),
            _cell(scheme="ms-src+ap", critical_path_seconds=9.0),
            _cell(scheme="ms-src+ap+aa"),
        ]),
    )
    assert check_regression.main([cur, "--baseline", base]) == check_regression.EXIT_OK
    assert "critical path" not in capsys.readouterr().out


def test_critical_path_tolerance_flag(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _report([_cell(critical_path_seconds=1.0)]))
    cur = _write(tmp_path, "cur.json", _report([_cell(critical_path_seconds=1.4)]))
    args = [cur, "--baseline", base, "--critical-path-tolerance", "0.1"]
    assert check_regression.main(args) == check_regression.EXIT_OK
    assert "critical path" in capsys.readouterr().out


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


# -- kernel scaling gate: build:run ratio (warn-only) ---------------------------

def _scaling(build, wall=2.0):
    cells = [
        {"haus": haus, "wall_seconds": wall,
         "build_seconds": build, "events_popped": 1000, "tuples": 100,
         "tuples_per_sec": 100 / wall}
        for haus in (1_000, 10_000)
    ]
    return {"mode": "fast", "cells": cells}


def _scaling_args(tmp_path, base_build, cur_build):
    rep = _report([_cell()])
    return [
        _write(tmp_path, "cur.json", rep),
        "--baseline", _write(tmp_path, "base.json", rep),
        "--scaling", _write(tmp_path, "scaling.json", _scaling(cur_build)),
        "--scaling-baseline", _write(tmp_path, "scaling_base.json", _scaling(base_build)),
    ]


def test_scaling_build_ratio_growth_is_warn_only(tmp_path, capsys):
    args = _scaling_args(tmp_path, base_build=1.0, cur_build=2.0)  # 0.5 -> 1.0
    assert check_regression.main(args) == check_regression.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("build:run ratio 1.00 vs baseline 0.50 (+100.0%)") == 2
    assert "--build-tolerance 50% (warn-only)" in out
    # a looser tolerance absorbs it
    assert check_regression.main(args + ["--build-tolerance", "1.5"]) == check_regression.EXIT_OK
    assert "build:run" not in capsys.readouterr().out


def test_scaling_build_ratio_within_tolerance_or_unrecorded_is_silent(tmp_path, capsys):
    for cur_build in (1.4, 0.2, None):  # +40 %, a saving, a report without the field
        args = _scaling_args(tmp_path, base_build=1.0, cur_build=cur_build)
        assert check_regression.main(args) == check_regression.EXIT_OK
        assert "build:run" not in capsys.readouterr().out


def test_checked_in_scaling_baseline_records_build_seconds():
    path = _MOD_PATH.parent / "BENCH_scaling_baseline.json"
    cells = json.loads(path.read_text())["cells"]
    assert cells and all(c["build_seconds"] > 0 and c["wall_seconds"] > 0 for c in cells)
