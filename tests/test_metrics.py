"""Unit tests for metrics collectors and breakdown records."""

import math

import pytest

from repro.metrics import CheckpointBreakdown, CheckpointLog, MetricsHub, RecoveryBreakdown
from repro.metrics.breakdown import PHASES, RunRecord


def test_throughput_counts_window():
    hub = MetricsHub()
    for t in (1.0, 2.0, 3.0, 10.0):
        hub.stage_samples.append(("k", t - 0.5, t))
    assert hub.stage_throughput("k") == 4
    assert hub.stage_throughput("k", start=2.0, end=5.0) == 2


def test_average_latency():
    hub = MetricsHub()
    hub.stage_samples.append(("k", 0.0, 2.0))
    hub.stage_samples.append(("k", 1.0, 2.0))
    hub.stage_samples.append(("j0", 0.0, 9.0))  # another HAU
    assert hub.stage_latency("k") == pytest.approx(1.5)
    assert hub.stage_latency("k", start=100.0) == 0.0


def test_latency_series_and_binned():
    hub = MetricsHub()
    for i in range(10):
        hub.stage_samples.append(("k", float(i), float(i) + (2.0 if i >= 5 else 0.5)))
    binned = hub.stage_binned_latency("k", 0.0, 12.0, 6.0)
    assert len(binned) == 2
    assert binned[0][1] < binned[1][1]  # spike in the second half
    assert [t for t, _v in binned] == [3.0, 9.0]


def test_binned_latency_validates_width():
    hub = MetricsHub()
    with pytest.raises(ValueError):
        hub.stage_binned_latency("k", 0.0, 1.0, 0.0)
    # 7 s in 2 s bins leaves [6, 7) over: its samples used to be dropped
    with pytest.raises(ValueError, match="do not tile"):
        hub.stage_binned_latency("k", 0.0, 7.0, 2.0)


def test_binned_latency_keeps_every_sample_of_the_window():
    # (0.7 - 0.1) / 0.2 is 2.9999999999999996: truncated, it made 2 bins
    # and the sample processed at 0.65 was lost
    hub = MetricsHub()
    hub.stage_samples.append(("k", 0.6, 0.65))
    binned = hub.stage_binned_latency("k", 0.1, 0.7, 0.2)
    assert [t for t, _v in binned] == pytest.approx([0.2, 0.4, 0.6])
    assert binned[2][1] == pytest.approx(0.05)
    # one ulp short of the end, (done - start) // width is the bin count
    edge = math.nextafter(1.0, 0.0)
    hub = MetricsHub()
    hub.stage_samples.append(("k", edge - 0.25, edge))
    assert hub.stage_binned_latency("k", 0.3, 1.0, 0.7)[0][1] == pytest.approx(0.25)


def test_stage_metrics_filter_by_prefix():
    hub = MetricsHub()
    hub.stage_samples.append(("A0", 0.0, 1.0))
    hub.stage_samples.append(("A1", 0.0, 3.0))
    hub.stage_samples.append(("B0", 0.0, 10.0))
    assert hub.stage_throughput("A") == 2
    assert hub.stage_latency("A") == pytest.approx(2.0)
    assert hub.stage_throughput("B") == 1
    assert hub.stage_throughput("") == 3
    assert hub.stage_throughput("A1") == 1


def test_stage_summary_is_the_three_reducers():
    hub = MetricsHub()
    for i in range(20):
        hub.stage_samples.append((f"A{i % 3}", float(i), float(i) + 0.1 * (i % 7)))
    for probe, start, end in (("A", 0.0, None), ("A1", 3.0, 15.0), ("B", 0.0, None)):
        assert hub.stage_summary(probe, start, end) == (
            hub.stage_throughput(probe, start, end),
            hub.stage_latency(probe, start, end),
            hub.stage_latency_percentiles(probe, start, end),
        )


def test_stage_binned_latency():
    hub = MetricsHub()
    hub.stage_samples.append(("A0", 0.0, 1.0))
    hub.stage_samples.append(("A0", 8.0, 9.0))
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
    hub = MetricsHub()
    for i in range(1, 101):
        hub.stage_samples.append(("s", 0.0, float(i)))
        hub.stage_samples.append(("A0", 0.0, float(i)))
    pct = hub.stage_latency_percentiles("s")
    assert set(pct) == {"p50", "p95", "p99"}
    assert pct["p50"] == pytest.approx(50.5)
    assert pct["p95"] == pytest.approx(95.05)
    assert pct["p50"] <= pct["p95"] <= pct["p99"]
    stage = hub.stage_latency_percentiles("A")
    assert stage == pytest.approx(pct)
    # windowing applies
    assert hub.stage_latency_percentiles("s", start=1000.0)["p50"] == 0.0


def test_latency_percentiles_empty_window():
    hub = MetricsHub()
    assert hub.stage_latency_percentiles("A") == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_latency_percentiles_custom_fractions():
    hub = MetricsHub()
    for i in range(1, 11):
        hub.stage_samples.append(("s", 0.0, float(i)))
    pct = hub.stage_latency_percentiles("s", percentiles=(0.1, 0.9))
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
