"""Live monitoring plane: burn-rate SLOs, health timelines, replay.

Covers the monitoring acceptance criteria:

* the plane is a pure observer — result digests are bit-identical with
  monitoring on or off;
* monitor output (alert log + health timeline) is byte-deterministic
  across same-seed runs;
* the multi-window burn-rate state machine against hand-computed burns;
* offline trace replay (and the ``python -m repro.monitor`` CLI)
  reproduces the live plane's verdicts;
* scenario ``monitor:`` / ``expect.alerts`` schema + checking;
* ``alerts.json`` bundle round-trip, and a v1 bundle refused by name.
"""

import json

import pytest

from repro.harness import ExperimentConfig, run_experiment
from repro.harness.digest import (
    canonical_json,
    config_fingerprint,
    result_fingerprint,
)
from repro.monitor import (
    DEFAULT_BOUNDS,
    SLO,
    SLO_KINDS,
    BurnEvaluator,
    CounterWindow,
    HealthTracker,
    MonitorPlane,
    SlidingWindow,
    WindowSpec,
    default_slos,
)

CFG = dict(
    app="tmi", scheme="ms-src+ap", n_checkpoints=2, window=40.0, warmup=10.0,
    workers=8, spares=12, racks=2, seed=1, app_params={"n_minutes": 0.25},
)
# Staleness bound below the ~20s between rounds fires; latency relaxed
# so only trace-derived SLOs alert (keeps live == offline comparable).
MON = dict(
    monitor_period=1.0,
    monitor_slos={"checkpoint-staleness": 12.0, "latency-p99": 60.0},
)


def _monitor_bytes(res):
    return canonical_json(
        {"alerts": res.alerts, "health_timeline": res.health_timeline}
    )


@pytest.fixture(scope="module")
def monitored():
    return run_experiment(ExperimentConfig(**CFG, **MON))


# -- burn-rate state machine (hand-verified) -----------------------------------


def test_burn_evaluator_fires_on_both_windows_and_resolves():
    slo = SLO(kind="latency-p99", bound=1.0, objective=0.1,
              fast_window=10.0, slow_window=30.0)
    ev = BurnEvaluator(slo)
    for t in range(1, 11):  # ten bad samples in (0, 10]
        ev.observe(float(t), good=False)
    assert ev.evaluate(10.0) == "fire"
    # bad/total = 1.0 in both windows -> burn = 1.0 / 0.1 = 10
    assert ev.burn_fast == pytest.approx(10.0)
    assert ev.burn_slow == pytest.approx(10.0)
    assert ev.evaluate(10.0) is None  # already active, still burning
    for t in range(11, 21):  # ten good samples in (10, 20]
        ev.observe(float(t), good=True)
    assert ev.evaluate(20.0) == "resolve"  # fast window now all good
    assert ev.burn_fast == 0.0
    assert ev.evaluate(20.0) is None


def test_burn_evaluator_slow_window_suppresses_blips():
    # 28 good then 2 bad: fast burn (2/10)/0.1 = 2 >= 1, but slow burn
    # (2/30)/0.1 = 0.67 < 1 — the long window proves it's a blip.
    slo = SLO(kind="latency-p99", bound=1.0, objective=0.1,
              fast_window=10.0, slow_window=30.0)
    ev = BurnEvaluator(slo)
    for t in range(1, 29):
        ev.observe(float(t), good=True)
    for t in (29, 30):
        ev.observe(float(t), good=False)
    assert ev.evaluate(30.0) is None
    assert ev.burn_fast == pytest.approx(2.0)
    assert ev.burn_slow == pytest.approx((2 / 30) / 0.1)


def test_burn_evaluator_threshold_is_inclusive_and_evicts():
    slo = SLO(kind="latency-p99", bound=1.0, objective=0.5,
              fast_window=10.0, slow_window=10.0)
    ev = BurnEvaluator(slo)
    ev.observe(1.0, good=True)
    ev.observe(2.0, good=False)  # bad fraction 0.5 -> burn exactly 1.0
    assert ev.evaluate(2.0) == "fire"
    # both samples age out at t=12 (window is half-open (now-10, now])
    ev2 = BurnEvaluator(slo)
    ev2.observe(1.0, good=False)
    assert ev2.evaluate(11.5) is None and ev2.burn_fast == 0.0
    # no data burns no budget
    assert BurnEvaluator(slo).evaluate(5.0) is None


def test_slo_validation_and_default_set():
    with pytest.raises(ValueError):
        SLO(kind="bogus", bound=1.0)
    with pytest.raises(ValueError):
        SLO(kind="latency-p99", bound=1.0, objective=0.0)
    with pytest.raises(ValueError):
        SLO(kind="latency-p99", bound=1.0, fast_window=20.0, slow_window=10.0)
    slos = default_slos({"checkpoint-staleness": 7.0})
    assert tuple(s.kind for s in slos) == SLO_KINDS  # deterministic order
    by_kind = {s.kind: s for s in slos}
    assert by_kind["checkpoint-staleness"].bound == 7.0
    assert by_kind["latency-p99"].bound == DEFAULT_BOUNDS["latency-p99"]
    with pytest.raises(ValueError):
        default_slos({"bogus": 1.0})


# -- windows -------------------------------------------------------------------


def test_counter_and_sliding_windows():
    cw = CounterWindow()
    assert cw.advance(1.0, 10.0) == 10.0
    assert cw.advance(2.0, 25.0) == 15.0
    sw = SlidingWindow(10.0)
    sw.observe(1.0, 4.0)
    sw.observe(5.0, 2.0)
    assert sw.maximum() == 4.0 and sw.total() == 6.0
    sw.evict(12.0)  # t=1 aged out of the half-open (2, 12]
    assert sw.count() == 1
    assert sw.maximum() == sw.last() == 2.0
    assert sw.mean() == 2.0
    assert WindowSpec("w", length=5.0, slide=5.0).tumbling
    assert not WindowSpec("w", length=5.0, slide=1.0).tumbling


# -- health machine ------------------------------------------------------------


def test_health_tracker_transitions_and_rack_rollup():
    h = HealthTracker(racks={"A": "rack0", "B": "rack0"}, nodes={"A": "w1", "B": "w2"})
    h.on_sample(1.0, "A", "checkpoint-staleness", good=False)
    assert h.states()["hau:A"] == "degraded"
    assert h.states()["rack:rack0"] == "degraded"  # worst member wins
    h.on_alert(2.0, "A", "checkpoint-staleness", "fire")
    assert h.states()["hau:A"] == "alerting"
    h.on_trace_event(3.0, "recovery.hau.start", "A")
    assert h.states()["hau:A"] == "recovering"
    h.on_trace_event(4.0, "recovery.hau", "A")
    assert h.states()["hau:A"] == "healthy"
    assert h.states()["rack:rack0"] == "healthy"
    # failure at a node drives every HAU placed there to alerting
    h.on_trace_event(5.0, "failure.inject", "w2")
    assert h.states()["hau:B"] == "alerting"
    assert h.states()["hau:A"] == "healthy"
    rows = h.timeline
    assert all(set(r) == {"t", "entity", "from", "to", "reason"} for r in rows)
    assert [r["to"] for r in rows if r["entity"] == "hau:A"] == [
        "degraded", "alerting", "recovering", "healthy",
    ]


# -- config plumbing -----------------------------------------------------------


def test_monitor_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(**CFG, monitor_period=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(**CFG, monitor_period=1.0, monitor_slos={"bogus": 1.0})


def test_config_fingerprint_excludes_monitor_fields_when_off():
    off = config_fingerprint(ExperimentConfig(**CFG))
    assert "monitor_period" not in off and "monitor_slos" not in off
    on = config_fingerprint(ExperimentConfig(**CFG, **MON))
    assert on["monitor_period"] == 1.0
    assert on["monitor_slos"] == MON["monitor_slos"]


# -- the plane is a pure observer ----------------------------------------------


def test_digests_identical_with_monitoring_on_and_off(monitored):
    plain = run_experiment(ExperimentConfig(**CFG))
    fp_plain = result_fingerprint(plain)
    fp_mon = result_fingerprint(monitored)
    # only the config section may differ (it records the monitor knobs)
    fp_plain.pop("config")
    fp_mon.pop("config")
    assert fp_plain == fp_mon


def test_monitor_output_byte_identical_across_runs(monitored):
    want = _monitor_bytes(monitored)
    assert _monitor_bytes(run_experiment(ExperimentConfig(**CFG, **MON))) == want


# -- live plane surfaces -------------------------------------------------------


def test_monitored_run_alert_surfaces_agree(monitored):
    res = monitored
    alerts = res.alerts
    # window+warmup = 50 sim seconds at period 1.0
    assert alerts["ticks"] == 50
    assert alerts["summary"]["fired"] > 0
    assert alerts["summary"]["resolved"] > 0
    assert set(alerts["summary"]["by_slo"]) == {"checkpoint-staleness"}
    # alert log <-> trace events <-> metrics, all from one evaluation
    fires = [e for e in res.tracer.events if e.kind == "alert.fire"]
    resolves = [e for e in res.tracer.events if e.kind == "alert.resolve"]
    assert len(fires) == alerts["summary"]["fired"]
    assert len(resolves) == alerts["summary"]["resolved"]
    fired_metric = sum(
        m.value for m in res.telemetry.select("ms_alerts_fired_total")
    )
    assert fired_metric == alerts["summary"]["fired"]
    active = res.telemetry.get("ms_alerts_active").value
    assert active == alerts["summary"]["active"] == res.monitor.active_alerts()
    assert res.telemetry.get("ms_monitor_ticks_total").value == alerts["ticks"]
    # per-tick series rows are exported alongside the log
    assert len(res.monitor.series) == alerts["ticks"]
    assert res.health_timeline, "alerting HAUs must produce health transitions"
    states = set(r["to"] for r in res.health_timeline)
    assert states <= {"healthy", "degraded", "alerting", "recovering"}


def test_unmonitored_run_has_empty_surfaces():
    res = run_experiment(ExperimentConfig(**CFG))
    assert res.monitor is None
    assert res.alerts == {}
    assert res.health_timeline == []


# -- offline replay + CLI ------------------------------------------------------


def test_offline_replay_reproduces_live_alert_log(monitored):
    offline = MonitorPlane(1.0, slos=default_slos(MON["monitor_slos"]))
    offline.run_offline(monitored.tracer.events)
    assert offline.alerts == monitored.alerts["log"]
    assert offline.summary()["by_slo"] == monitored.alerts["summary"]["by_slo"]


def test_run_offline_refuses_attached_plane(monitored):
    assert monitored.monitor is not None
    with pytest.raises(RuntimeError):
        monitored.monitor.run_offline(())


def test_cli_replay_json_and_tables(monitored, tmp_path, capsys):
    from repro.monitor.cli import main

    trace = tmp_path / "run.trace.jsonl"
    monitored.write_trace(str(trace))
    argv = [
        str(trace), "--period", "1.0",
        "--bound", "checkpoint-staleness=12", "--bound", "latency-p99=60",
    ]
    assert main([*argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alerts"]["log"] == monitored.alerts["log"]
    assert payload["health_timeline"], "replay should rebuild the timeline"
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "monitor" in out and "checkpoint-staleness" in out
    with pytest.raises(SystemExit):
        main([str(trace), "--bound", "not-a-pair"])


# -- scenarios -----------------------------------------------------------------


def test_scenario_monitor_compiles_to_config_fields():
    from repro.scenarios.compiler import compile_scenario

    doc = {
        "id": "t", "version": 1, "app": {"name": "tmi"}, "scheme": "ms-src+ap",
        "monitor": {"period": 2.0, "slos": {"checkpoint-staleness": 9.0}},
    }
    cfg = compile_scenario(doc).spec.config
    assert cfg.monitor_period == 2.0
    assert cfg.monitor_slos == {"checkpoint-staleness": 9.0}
    del doc["monitor"]
    cfg = compile_scenario(doc).spec.config
    assert cfg.monitor_period == 0.0 and cfg.monitor_slos == {}


def test_expect_alerts_pass_and_fail():
    from repro.scenarios.compiler import check_expectations

    log = [
        {"t": 13.0, "slo": "checkpoint-staleness", "subject": "A",
         "action": "fire", "burn_fast": 10.0, "burn_slow": 2.0},
        {"t": 21.0, "slo": "checkpoint-staleness", "subject": "A",
         "action": "resolve", "burn_fast": 0.0, "burn_slow": 1.0},
    ]
    payload = {"alerts": {"log": log}}
    doc = {"id": "t", "expect": {"alerts": [
        {"slo": "checkpoint-staleness", "fired": 1, "resolved": 1},
    ]}}
    assert check_expectations(doc, payload) == []
    doc["expect"]["alerts"] = [{"slo": "checkpoint-staleness", "fired": 3}]
    failures = check_expectations(doc, payload)
    assert failures and ">= 3 fired" in failures[0]
    # subject filter
    doc["expect"]["alerts"] = [
        {"slo": "checkpoint-staleness", "subject": "B", "fired": 1},
    ]
    assert check_expectations(doc, payload)
    # unmonitored payloads get the actionable hint
    failures = check_expectations(
        {"id": "t", "expect": {"alerts": [{"slo": "recovery-time", "fired": 1}]}},
        {"alerts": {}},
    )
    assert failures and "not monitored" in failures[0]


def test_example_alert_scenario_is_committed_and_asserts_a_cycle():
    from pathlib import Path

    from repro.scenarios.loader import load_path

    path = Path(__file__).resolve().parent.parent / (
        "examples/scenarios/slo-staleness-alert.yaml"
    )
    doc = load_path(path)
    wants = doc["expect"]["alerts"]
    assert any(w.get("fired") and w.get("resolved") for w in wants)


# -- bundles -------------------------------------------------------------------


def test_bundle_carries_alerts_and_rejects_v1(tmp_path, monitored, capsys):
    from repro.harness.sweep import reduce_result
    from repro.inspect.bundle import (
        BundleError,
        build_bundle,
        bundle_id,
        read_bundle,
        write_bundle,
    )
    from repro.inspect.cli import main

    payload = reduce_result(monitored)
    assert payload["alerts"]["summary"]["fired"] > 0
    bundle = build_bundle(payload)
    directory = write_bundle(bundle, tmp_path, name="B")
    back = read_bundle(directory)
    assert back["files"]["alerts.json"]["alerts"] == payload["alerts"]
    assert back["files"]["alerts.json"]["health_timeline"] == (
        payload["health_timeline"]
    )
    # a v1 bundle (pre-monitoring, no alerts.json) is refused by name
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    manifest["bundle_version"] = 1
    del manifest["files"]["alerts.json"]
    manifest["bundle_id"] = bundle_id(manifest["files"])
    (directory / "MANIFEST.json").write_text(json.dumps(manifest))
    (directory / "alerts.json").unlink()
    with pytest.raises(BundleError, match="bundle_version 1"):
        read_bundle(directory)
    assert main(["show", str(directory)]) == 2
    assert "bundle_version 1" in capsys.readouterr().err


def test_bundle_diff_attributes_alert_deltas(tmp_path, monitored):
    from repro.harness.sweep import reduce_result
    from repro.inspect.bundle import build_bundle
    from repro.inspect.diff import diff_bundles, top_movers
    from repro.inspect.explain import explain_diff

    payload = reduce_result(monitored)
    quiet = dict(payload, alerts={}, health_timeline=[])
    diff = diff_bundles(build_bundle(quiet), build_bundle(payload))
    fired = payload["alerts"]["summary"]["fired"]
    entry = diff["alerts"]["checkpoint-staleness:fired"]
    assert entry["a"] == 0.0 and entry["b"] == float(fired)
    assert any(row["dimension"] == "alert" for row in top_movers(diff, limit=50))
    text = "\n".join(explain_diff(diff))
    assert "alert counts" in text
