"""Self-test of the benchmark: ``python -m pytest perf/ -q`` (about 30 s).

Walks every workload builder at shrunken dimensions through the real
child-process path, and checks that what the runner prints is what
``BENCHMARK.json`` lists.
"""

import re

import pytest

from perf import compare, layers, run
from perf.spans import SpanRecorder, self_times

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_names_and_counts():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    groups = (SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"])
    for group, most in zip(groups, (8, 16, 128)):
        names = [entry["name"] for entry in group]
        assert 1 <= len(names) <= most
        assert len(set(names)) == len(names)
        assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS


def test_workloads_match_the_child():
    from perf.workloads import WORKLOADS as builders

    assert list(builders) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_pass_prints_the_listed_metrics(workload):
    spans_pass = run.spawn(workload, seed=1, mode="spans", small=True)
    profile_pass = run.spawn(workload, seed=1, mode="profile", small=True)
    assert all(op["error"] is None and not op["checks"] for op in spans_pass["ops"])

    end_to_end = run.end_to_end([spans_pass])
    assert list(end_to_end) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(stats["median"] > 0 for stats in end_to_end.values())
    metrics = layers.layer_metrics(spans_pass, profile_pass)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["simulation.events_popped"] > 0
    assert sum(metrics[f"{layer}.calls"] for layer in layers.LAYERS) > 0

    # spans form a tree (parents open before and close after their
    # children) with non-negative self times
    spans = spans_pass["spans"]
    for span in spans:
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["id"] < span["id"]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    assert all(own >= 0 for own in self_times(spans).values())
    # the same simulated statistics with and without the profiler
    assert run.sim_digest(spans_pass) == run.sim_digest(profile_pass)


def test_staged_run_is_run_experiment():
    """``run_op`` repeats ``run_experiment`` call by call; both must
    decide the same run, bit for bit."""
    from repro.failures.injector import FailurePlan
    from repro.harness.digest import result_digest
    from repro.harness.experiment import run_experiment
    from perf import workloads

    op = workloads.Op(
        "tmi/ms-src+ap@2+rack-burst",
        workloads.config_for(
            workloads.SMALL, 3, app="tmi", scheme="ms-src+ap", n_checkpoints=2,
            enable_recovery=True, app_params={"n_minutes": 0.25}, monitor_period=2.0,
        ),
        failures=(workloads.PlannedFailure(at=11.0, kind="rack", target="rack1"),),
        trace=True,
        telemetry=True,
    )
    staged, _injector = workloads.run_op(SpanRecorder(), op)
    whole = run_experiment(
        op.cfg, failure_plan=FailurePlan(events=list(op.failures)), trace=True, telemetry=True
    )
    assert result_digest(staged) == result_digest(whole)
    assert staged.trace_jsonl() == whole.trace_jsonl()
    assert staged.telemetry_json() == whole.telemetry_json()


def _stats(values):
    return run.summarize(list(values))


def test_compare_verdicts():
    steady = _stats([1.00, 1.01, 0.99, 1.00])
    assert compare.verdict(steady, _stats([1.30, 1.31, 1.29, 1.30]), "lower", 0.1)[1] == "worse"
    assert compare.verdict(steady, _stats([0.70, 0.71, 0.69, 0.70]), "lower", 0.1)[1] == "better"
    near = _stats([1.04, 1.05, 1.03, 1.04])
    assert compare.verdict(steady, near, "lower", 0.1)[1] == "within-bound"
    assert compare.verdict(steady, _stats([0.70, 0.71, 0.69, 0.70]), "higher", 0.1)[1] == "worse"
    noisy = _stats([0.8, 1.0, 1.3, 1.6])
    assert compare.verdict(steady, noisy, "lower", 0.1)[1] == "unresolved"
