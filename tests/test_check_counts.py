"""The counts gate (benchmarks/check_counts.py) CI's perf-checks runs on
the merge base's and the head's traced ``perf.run`` reports."""

import importlib.util
import json
from pathlib import Path

_MOD_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "check_counts.py"
_spec = importlib.util.spec_from_file_location("check_counts", _MOD_PATH)
check_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_counts)


def _report():
    metrics = dict.fromkeys(check_counts.COUNTS, 7)
    metrics["dsps.self_s"] = 1.25  # seconds: never compared
    return {"header": {}, "workloads": {
        "dataflow_steady": {"sim_digest": "a" * 64, "metrics": dict(metrics)},
        "burst_recovery": {"sim_digest": "b" * 64, "metrics": dict(metrics)},
    }}


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_equal_counts_pass_whatever_the_seconds(tmp_path, capsys):
    head = _report()
    head["workloads"]["burst_recovery"]["metrics"]["dsps.self_s"] = 9.0
    assert check_counts.main([_write(tmp_path, "a.json", _report()),
                              _write(tmp_path, "b.json", head)]) == 0
    assert "0 difference(s) over 2 workload(s)" in capsys.readouterr().out


def test_a_moved_count_or_digest_names_the_workload_and_the_counter(tmp_path, capsys):
    head = _report()
    head["workloads"]["burst_recovery"]["metrics"]["failures.haus_recovered"] = 6
    head["workloads"]["dataflow_steady"]["sim_digest"] = "c" * 64
    assert check_counts.main([_write(tmp_path, "a.json", _report()),
                              _write(tmp_path, "b.json", head)]) == 1
    out = capsys.readouterr().out
    assert "MOVED burst_recovery: failures.haus_recovered 7 -> 6" in out
    assert "MOVED dataflow_steady: sim_digest" in out


def test_a_missing_workload_fails_and_an_unreadable_report_exits_two(tmp_path):
    base = _write(tmp_path, "a.json", _report())
    head = _report()
    del head["workloads"]["burst_recovery"]
    assert check_counts.main([base, _write(tmp_path, "b.json", head)]) == 1
    broken = _report()
    del broken["workloads"]["dataflow_steady"]["metrics"]["monitor.ticks"]
    assert check_counts.main([base, _write(tmp_path, "c.json", broken)]) == 2
    assert check_counts.main([base, str(tmp_path / "missing.json")]) == 2
    assert check_counts.main([base]) == 2
