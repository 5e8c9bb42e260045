"""Tests for the experiment harness (configs, runner, oracle search)."""

import pytest

from repro.harness import (
    ExperimentConfig,
    find_oracle_times,
    format_series,
    format_table,
    run_experiment,
)
from repro.harness.figures import default_app_params


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


def test_run_experiment_deterministic():
    a = run_experiment(small(seed=5))
    b = run_experiment(small(seed=5))
    assert (a.throughput, a.latency) == (b.throughput, b.latency)
    c = run_experiment(small(seed=6))
    assert (a.throughput, a.latency) != (c.throughput, c.latency)


def test_every_scheme_runs():
    for scheme in ("baseline", "ms-src", "ms-src+ap"):
        res = run_experiment(small(scheme=scheme, n_checkpoints=2))
        assert res.throughput > 0, scheme


def test_state_trace_records_all_haus():
    res = run_experiment(small(), trace_state=True)
    assert res.state_trace is not None
    assert set(res.state_trace.samples) == set(res.runtime.app.graph.haus)
    total = res.state_trace.total_series()
    assert total and total[-1][1] >= 0


def test_find_oracle_times_within_window():
    cfg = small(scheme="oracle", n_checkpoints=2)
    times = find_oracle_times(cfg)
    assert 1 <= len(times) <= 2
    assert all(cfg.warmup <= t <= cfg.end for t in times)


def test_failure_injection_kills_targets():
    cfg = small(scheme="ms-src", n_checkpoints=1, enable_recovery=True)
    res = run_experiment(cfg, failure_at=20.0, failure_targets=None)
    # worst case: all HAU nodes failed, then recovered onto spares
    assert res.scheme.recoveries
    assert all(h.node.alive for h in res.runtime.haus.values())


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
