"""Unit tests for metrics collectors and breakdown records."""

import pytest

from repro.metrics import CheckpointBreakdown, CheckpointLog, MetricsHub, RecoveryBreakdown
from repro.metrics.breakdown import PHASES, RunRecord


def sink_hub(*sinks):
    """A hub that has been told its sinks, as the runtime tells it."""
    hub = MetricsHub()
    hub.sinks = frozenset(sinks)
    return hub


def test_throughput_counts_window():
    hub = sink_hub("k")
    for t in (1.0, 2.0, 3.0, 10.0):
        hub.record_stage("k", t - 0.5, t)
    assert hub.throughput() == 4
    assert hub.throughput(start=2.0, end=5.0) == 2


def test_average_latency():
    hub = sink_hub("k")
    hub.record_stage("k", 0.0, 2.0)
    hub.record_stage("k", 1.0, 2.0)
    hub.record_stage("k0", 0.0, 9.0)  # not a sink: a set of ids, not a prefix
    assert hub.average_latency() == pytest.approx(1.5)
    assert hub.average_latency(start=100.0) == 0.0


def test_latency_series_and_binned():
    hub = sink_hub("k")
    for i in range(10):
        hub.record_stage("k", float(i), float(i) + (2.0 if i >= 5 else 0.5))
    series = hub.latency_series()
    assert len(series) == 10
    binned = hub.binned_latency(0.0, 12.0, 6.0)
    assert len(binned) == 2
    assert binned[0][1] < binned[1][1]  # spike in the second half
    assert hub.peak_binned_latency(0.0, 12.0, 6.0) == binned[1][1]


def test_binned_latency_validates_width():
    hub = MetricsHub()
    with pytest.raises(ValueError):
        hub.binned_latency(0.0, 1.0, 0.0)


def test_stage_metrics_filter_by_prefix():
    hub = MetricsHub()
    hub.record_stage("A0", 0.0, 1.0)
    hub.record_stage("A1", 0.0, 3.0)
    hub.record_stage("B0", 0.0, 10.0)
    assert hub.stage_throughput("A") == 2
    assert hub.stage_latency("A") == pytest.approx(2.0)
    assert hub.stage_throughput("B") == 1
    assert hub.stage_throughput("") == 3
    series = hub.stage_latency_series("A")
    assert series == [(1.0, 1.0), (3.0, 3.0)]


def test_stage_binned_latency():
    hub = MetricsHub()
    hub.record_stage("A0", 0.0, 1.0)
    hub.record_stage("A0", 8.0, 9.0)
    binned = hub.stage_binned_latency("A", 0.0, 10.0, 5.0)
    assert len(binned) == 2
    assert binned[0][1] == pytest.approx(1.0)


def test_checkpoint_breakdown_components():
    bd = CheckpointBreakdown(
        hau_id="h", round_id=1, command_at=10.0, tokens_done_at=12.0,
        write_start_at=13.0, write_end_at=20.0,
        fork_seconds=0.5, serialize_seconds=1.0,
    )
    assert bd.token_collection == pytest.approx(2.0)
    assert bd.disk_io == pytest.approx(7.0)
    assert bd.other == pytest.approx(1.5)
    assert bd.total == pytest.approx(10.5)


def test_checkpoint_log_slowest_and_wallclock():
    log = CheckpointLog(round_id=1, started_at=0.0)
    a = log.breakdown("a")
    a.command_at, a.tokens_done_at = 0.0, 1.0
    a.write_start_at, a.write_end_at = 1.0, 4.0
    b = log.breakdown("b")
    b.command_at, b.tokens_done_at = 0.0, 2.0
    b.write_start_at, b.write_end_at = 2.0, 9.0
    assert log.slowest() is b
    assert log.wall_clock() == pytest.approx(9.0)
    assert not log.complete
    log.completed_at = 9.0
    assert log.complete


def test_checkpoint_log_breakdown_idempotent():
    log = CheckpointLog(round_id=1, started_at=0.0)
    assert log.breakdown("x") is log.breakdown("x")


def test_recovery_breakdown_totals():
    rec = RecoveryBreakdown(
        started_at=100.0, reload_seconds=0.3, disk_io_seconds=5.0,
        deserialize_seconds=0.7, reconnect_seconds=0.5, completed_at=110.0,
    )
    assert rec.other == pytest.approx(1.0)
    assert rec.total == pytest.approx(10.0)


def test_phase_names_exist_once():
    # a checkpoint that reached every instant has one span per phase, named
    # by the model's own PHASES (the vocabulary's tuple, nothing respelt)
    bd = CheckpointBreakdown(
        hau_id="h", round_id=1, command_at=1.0, tokens_done_at=2.0,
        start_at=2.5, write_start_at=3.0, write_end_at=5.0,
    )
    spans = bd.phase_spans()
    assert tuple(s.name for s in spans) == PHASES
    assert [(s.start, s.end) for s in spans] == [(1.0, 2.0), (2.0, 2.5), (2.5, 3.0), (3.0, 5.0)]
    assert set(bd.as_dict()["phases"]) == set(PHASES)
    # a phase whose end was never reached is absent, not zero-length
    cut = CheckpointBreakdown(hau_id="h", round_id=1, command_at=1.0, tokens_done_at=2.0)
    assert [s.name for s in cut.phase_spans()] == [PHASES[0]]


def test_latency_percentiles_sink_and_stage():
    hub = sink_hub("s")
    for i in range(1, 101):
        hub.record_stage("s", 0.0, float(i))
        hub.record_stage("A0", 0.0, float(i))
    pct = hub.latency_percentiles()
    assert set(pct) == {"p50", "p95", "p99"}
    assert pct["p50"] == pytest.approx(50.5)
    assert pct["p95"] == pytest.approx(95.05)
    assert pct["p50"] <= pct["p95"] <= pct["p99"]
    stage = hub.stage_latency_percentiles("A")
    assert stage == pytest.approx(pct)
    # windowing applies
    assert hub.latency_percentiles(start=1000.0)["p50"] == 0.0


def test_latency_percentiles_empty_window():
    hub = MetricsHub()
    assert hub.latency_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    assert hub.stage_latency_percentiles("A") == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_latency_percentiles_custom_fractions():
    hub = sink_hub("s")
    for i in range(1, 11):
        hub.record_stage("s", 0.0, float(i))
    pct = hub.latency_percentiles(percentiles=(0.1, 0.9))
    assert set(pct) == {"p10", "p90"}


def test_checkpoint_breakdown_completeness_flags():
    # fully recorded
    done = CheckpointBreakdown(hau_id="a", round_id=1)
    done.command_at, done.tokens_done_at = 1.0, 2.0
    done.write_start_at, done.write_end_at = 2.0, 5.0
    assert done.complete
    assert done.token_collection == pytest.approx(1.0)
    assert done.disk_io == pytest.approx(3.0)
    assert done.other == 0.0

    # killed during token collection: the phases never reached are None,
    # not zero-length
    cut = CheckpointBreakdown(hau_id="b", round_id=1)
    cut.command_at = 1.0
    assert not cut.complete
    assert cut.token_collection is None
    assert cut.disk_io is None
    assert cut.elapsed is None

    # killed mid-write: write_end_at never stamped
    midwrite = CheckpointBreakdown(hau_id="c", round_id=1)
    midwrite.command_at, midwrite.tokens_done_at = 1.0, 2.0
    midwrite.write_start_at = 2.0
    assert not midwrite.complete
    assert midwrite.disk_io is None
    assert midwrite.total == pytest.approx(1.0)  # the phases it did reach


def test_checkpoint_log_incomplete_haus():
    log = CheckpointLog(round_id=1, started_at=0.0)
    ok = log.breakdown("ok")
    ok.command_at, ok.tokens_done_at = 0.0, 1.0
    ok.write_start_at, ok.write_end_at = 1.0, 2.0
    log.breakdown("dead")  # never progressed
    assert log.incomplete_haus() == ["dead"]
    assert not log.complete


def test_recovery_breakdown_completeness():
    ok = RecoveryBreakdown(started_at=10.0, completed_at=15.0, done_at=15.5)
    assert ok.complete and ok.total == pytest.approx(5.0)
    abandoned = RecoveryBreakdown(started_at=10.0)  # never reconnected
    assert not abandoned.complete
    assert abandoned.total is None


def test_round_status_says_why_a_round_is_not_complete():
    record = RunRecord(expected_haus=("a", "b", "c"))
    record.apply("checkpoint.round.start", 1.0, "sch", {"round": 1})
    record.apply("checkpoint.command", 1.1, "a", {"round": 1, "via": "control"})
    record.apply("checkpoint.start", 1.2, "a", {"round": 1, "mode": "sync"})
    record.apply("checkpoint.write.start", 1.3, "a", {"round": 1, "bytes": 10})
    record.apply("checkpoint.commit", 1.4, "a", {"round": 1, "bytes": 10})
    record.apply("checkpoint.command", 1.5, "b", {"round": 1, "via": "token"})
    log = record.logs[1]
    assert log.status() == (
        "open at end of run (2 of 3 HAUs reached, 1 started, 1 committed)"
    )
    record.apply("checkpoint.abandon", 2.0, "sch", {"round": 1, "cause": "rollback"})
    assert log.status().startswith("abandoned by rollback at 2.000s (2 of 3 HAUs reached")
    assert log.incomplete_haus() == ["b", "c"] and log.stalled_haus() == ["b"]
    record.apply("checkpoint.round.complete", 3.0, "sch", {"round": 1, "haus": 3})
    assert log.status() == "complete"
