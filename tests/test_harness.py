"""Tests for the experiment harness (configs, runner, oracle search)."""

import pytest

from repro.dsps.runtime import RuntimeConfig
from repro.failures.injector import FailurePlan, PlannedFailure
from repro.harness import (
    ExperimentConfig,
    find_oracle_times,
    format_series,
    format_table,
    run_experiment,
)
from repro.harness.digest import result_digest
from repro.harness.figures import default_app_params
from tests import pins
from tests.pins import STUB_PAYLOAD as _STUB_PAYLOAD


def small(**kw):
    base = dict(
        app="tmi", window=40.0, warmup=10.0, workers=12, spares=14, racks=2,
        app_params={"n_minutes": 0.25},
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validates_app_and_scheme():
    with pytest.raises(ValueError):
        ExperimentConfig(app="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="nope")


@pytest.mark.parametrize(
    "field, value",
    [("window", float("nan")), ("window", float("inf")), ("window", 0.0), ("window", -1.0),
     ("warmup", float("nan")), ("warmup", float("inf")), ("warmup", -1.0)],
)
def test_config_rejects_a_bad_window_or_warmup(field, value):
    # a NaN window used to "run": throughput 0 and the clock at NaN
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})
    assert ExperimentConfig(warmup=0.0).end == 150.0  # no warm-up is fine


def test_checkpoint_times_spacing():
    cfg = small(scheme="ms-src", n_checkpoints=4)
    times = cfg.checkpoint_times()
    assert len(times) == 4
    assert all(cfg.warmup <= t <= cfg.end for t in times)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(abs(g - cfg.window / 4) < 1e-9 for g in gaps)
    assert small(n_checkpoints=0).checkpoint_times() == []


def test_run_experiment_measures_probe():
    res = run_experiment(small())
    assert res.throughput > 0
    assert res.latency > 0
    with pytest.raises(RuntimeError, match="trace_state=True"):
        res.state_series()  # no sampler ran


def test_run_experiment_deterministic():
    a = run_experiment(small(seed=5))
    b = run_experiment(small(seed=5))
    assert (a.throughput, a.latency) == (b.throughput, b.latency)
    c = run_experiment(small(seed=6))
    assert (a.throughput, a.latency) != (c.throughput, c.latency)


def test_a_run_deploys_the_one_capacity_pair():
    """`RuntimeConfig` owns the 16/32 buffers, and `run_experiment` restates
    neither: every data channel and every HAU inbox is built at its value."""
    pair = RuntimeConfig()
    assert (pair.channel_capacity, pair.inbox_capacity) == (16, 32)
    runtime = run_experiment(small(window=10.0, warmup=2.0)).runtime
    assert runtime.data_channels and runtime.haus
    assert {c.capacity for c in runtime.data_channels.values()} == {pair.channel_capacity}
    assert {h.inbox_capacity for h in runtime.haus.values()} == {pair.inbox_capacity}


def test_every_scheme_runs():
    for scheme in ("baseline", "ms-src", "ms-src+ap"):
        res = run_experiment(small(scheme=scheme, n_checkpoints=2))
        assert res.throughput > 0, scheme


def test_state_trace_records_all_haus():
    res = run_experiment(small(), trace_state=True)
    assert res.telemetry_sampler is not None
    per_hau = res.telemetry_sampler.series["ms_hau_state_bytes"]
    assert set(per_hau) == set(res.runtime.app.graph.haus)
    total = res.state_series()
    assert total and total[-1][1] >= 0
    # the summed series is the per-HAU samples added up, instant by instant
    t, value = total[-1]
    assert value == sum(s for points in per_hau.values() for (u, s) in points if u == t)
    assert res.state_series("no-such-prefix") == []


def test_trace_state_without_telemetry_leaves_the_registry_off():
    res = run_experiment(small(), trace_state=True)
    assert res.telemetry is None
    assert not res.runtime.env.trace.enabled  # nothing to fold, so no trace either
    assert not hasattr(res.runtime.env, "telemetry")


def test_sampled_series_are_the_same_with_and_without_telemetry():
    """The write-seconds series reads the scheme's run record, not a
    registry: a sampled run without telemetry records the same series
    (it read all zeros when the sampler took the gauge from the registry)."""
    cfg = small(scheme="ms-src+ap", n_checkpoints=2, seed=1)
    sampled = run_experiment(cfg, trace_state=True).telemetry_sampler
    telemetered = run_experiment(cfg, telemetry=True).telemetry_sampler
    assert sampled.series_dict() == telemetered.series_dict()
    written = sampled.series["ms_hau_ckpt_write_seconds"]
    assert sum(1 for points in written.values() for _t, v in points if v > 0) > 100


def test_find_oracle_times_within_window():
    cfg = small(scheme="oracle", n_checkpoints=2)
    times = find_oracle_times(cfg)
    assert 1 <= len(times) <= 2
    assert all(cfg.warmup <= t <= cfg.end for t in times)


def test_failure_injection_kills_targets():
    cfg = small(scheme="ms-src", n_checkpoints=1, enable_recovery=True)
    res = run_experiment(cfg, failure_at=20.0, failure_targets=None, trace=True)
    # worst case: every node hosting an HAU failed at 20 s, in id order,
    # then all recovered onto spares
    injected = res.tracer.select(kind="failure.inject")
    assert [e.subject for e in injected] == sorted({f"w{i}" for i in range(cfg.workers)})
    assert {(e.t, e.get("kind"), e.get("cause")) for e in injected} == {(20.0, "node", "experiment")}
    assert res.scheme.recoveries
    assert all(h.node.alive for h in res.runtime.haus.values())


def test_failure_at_is_a_node_row_of_a_failure_plan():
    cfg = small(scheme="ms-src+ap", n_checkpoints=2, enable_recovery=True)
    one_shot = run_experiment(cfg, failure_at=25.0, failure_targets=["w3"], trace=True)
    plan = FailurePlan([PlannedFailure(25.0, "node", "w3", cause="experiment")])
    planned = run_experiment(cfg, failure_plan=plan, trace=True)
    assert result_digest(one_shot) == result_digest(planned)
    assert one_shot.trace_jsonl() == planned.trace_jsonl()
    assert one_shot.scheme.recoveries


def test_unknown_failure_target_raises_before_the_run():
    # the kill would fire long after the run ends: only a check made
    # before the run can see the bad id
    with pytest.raises(KeyError, match="w999"):
        run_experiment(small(), failure_at=1e9, failure_targets=["w999"])


def test_default_app_params_scales_state():
    p_full = default_app_params("bcp", 600.0)
    p_fast = default_app_params("bcp", 150.0)
    assert p_full["state_scale"] == 1.0
    assert p_fast["state_scale"] == pytest.approx(0.25)
    assert "n_minutes" in default_app_params("tmi", 600.0)


def test_format_table_alignment():
    out = format_table(["a", "long_header"], [[1, 2.5], ["xx", 3]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "long_header" in lines[1]
    assert len(lines) == 5


def test_format_series():
    out = format_series("s", [(1.0, 2.0), (3.0, 4.0)], unit="MB")
    assert "2 points" in out
    assert out.count("\n") == 2


def test_a_breakdown_without_numbers_carries_its_reason_not_a_nan(monkeypatch):
    """Fig. 14 / Fig. 16 cells with no complete round / no recovery say
    so where the total would be; a scheme that reports only a total
    prints ``-`` for the parts it has none of."""
    from repro.harness import breakdown_row, figures

    ckpt = {"wall_clock": 9.0, "token_collection": 1.0, "disk_io": 2.0, "other": 0.5, "total": 3.5}
    payloads = [
        {"checkpoint": None, "rounds_completed": 0, "incomplete_rounds": [
            "round 1 open at end of run (28 of 55 HAUs reached, 28 started, 20 committed)",
        ]},  # ms-src
        {"checkpoint": ckpt, "rounds_completed": 2},  # ms-src+ap
        {"checkpoint": ckpt, "rounds_completed": 2},  # ms-src+ap+aa
        {"checkpoint": ckpt, "rounds_completed": 2},  # oracle
    ]
    monkeypatch.setattr(figures, "cached_oracle_times", lambda *a, **k: (12.0, 24.0))
    monkeypatch.setattr(figures, "run_cells", lambda specs, **k: payloads)
    cells = figures.fig14_checkpoint_time(apps=["bcp"], n_checkpoints=2)["bcp"]
    why = (
        "no complete round (0 of 2): "
        "round 1 open at end of run (28 of 55 HAUs reached, 28 started, 20 committed)"
    )
    assert cells["ms-src"] == {"reason": why}
    columns = [("token_collection", ".2f"), ("disk_io", ".2f"), ("other", ".2f"), ("total", ".2f")]
    assert breakdown_row("ms-src", cells["ms-src"], columns) == [
        "ms-src", "-", "-", "-", why,
    ]
    assert breakdown_row("ms-src+ap", cells["ms-src+ap"], columns) == [
        "ms-src+ap", "1.00", "2.00", "0.50", "3.50",
    ]
    assert breakdown_row("ms-src", {"total": 9.0}, columns) == ["ms-src", "-", "-", "-", "9.00"]

    monkeypatch.setattr(figures, "run_cells", lambda specs, **k: [{"recovery": None}] * 3)
    cells = figures.fig16_recovery_time(apps=["bcp"])["bcp"]
    assert cells["oracle"] == {"reason": "no recovery recorded"}
    text = format_table(["scheme", "total (s)"], [breakdown_row("oracle", cells["oracle"], [("total", ".2f")])])
    assert "nan" not in text and "no recovery recorded" in text


def test_headline_over_no_comparable_cells_raises_instead_of_nan():
    from repro.harness.figures import SweepResult, headline_numbers

    with pytest.raises(ValueError, match="no app .* has throughput cells for both ms-src and baseline"):
        headline_numbers(SweepResult())


def test_aa_at_zero_checkpoints_is_the_ap_cell_in_either_scheme_order(monkeypatch):
    """``ms-src+ap+aa@0`` is a relabelled ``ms-src+ap@0`` run, whether or
    not ``ms-src+ap`` is swept and whichever scheme comes first."""
    from repro.harness import figures

    laid_out = []

    def fake_run_cells(specs, **kw):
        laid_out.append([(s.config.scheme, s.config.n_checkpoints) for s in specs])
        return [dict(_STUB_PAYLOAD, throughput=7)] * len(specs)

    monkeypatch.setattr(figures, "run_cells", fake_run_cells)
    for schemes in (["ms-src+ap+aa"], ["ms-src+ap+aa", "ms-src+ap"], ["ms-src+ap", "ms-src+ap+aa"]):
        res = figures.fig12_fig13_sweep(apps=["bcp"], schemes=schemes, checkpoint_counts=[0])
        assert [(c.scheme, c.n_checkpoints) for c in res.cells] == [(s, 0) for s in schemes]
        assert {c.throughput for c in res.cells} == {7}
        assert laid_out.pop() == [("ms-src+ap", 0)]


def test_figure_cell_layout_is_pinned():
    """Every figure cell's cache key material, oracle base config, failure
    instant and latency bins at the fast and the paper scale, as one hash:
    a change to any figure's protocol shows here as a moved pin."""
    records = pins.figure_cells()
    assert len(records) == 174
    pins.check("figure-cells/key-material", pins.key_material(records))
