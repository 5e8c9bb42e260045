"""Tests for the runtime telemetry subsystem (repro.telemetry):
exact histograms, registry semantics, the fold of a
finished run into a registry, per-HAU sampling, deterministic JSON
snapshots, and reading a snapshot back with ``python -m repro.inspect
show`` (which test_inspect.py covers in full)."""

import json
import random  # repro-lint: disable=DET002 — seeded local Random instances only, no global state
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import MSSrc, MSSrcAP
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import make_chain_graph
from repro.inspect.cli import main as inspect_main
from repro.inspect.cli import render_snapshot
from repro.simulation import Environment
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Sampler,
    dumps_snapshot,
    exact_percentile,
    read_snapshot,
    snapshot,
    write_snapshot,
)
from repro.telemetry.fold import fold_run
from repro.telemetry.quantile import nearest_rank_percentile
from repro.telemetry.registry import DEFAULT_PERCENTILES
from repro.vocabulary import METRICS
from tests import pins


def deploy(scheme, seed=7, workers=4, spares=6, telemetry=True, **graph_kw):
    g, holder = make_chain_graph(**graph_kw)
    env = Environment()
    if telemetry:
        env.enable_tracing()  # what the fold reads
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=g),
        scheme,
        RuntimeConfig(seed=seed, cluster=ClusterSpec(workers=workers, spares=spares, racks=2)),
    )
    rt.start()
    return env, rt, holder


# -- exact percentile ----------------------------------------------------------


def test_exact_percentile_basics():
    assert exact_percentile([], 0.5) == 0.0
    assert exact_percentile([3.0], 0.99) == 3.0
    vals = [1.0, 2.0, 3.0, 4.0]
    assert exact_percentile(vals, 0.0) == 1.0
    assert exact_percentile(vals, 1.0) == 4.0
    assert exact_percentile(vals, 0.5) == pytest.approx(2.5)


def test_exact_percentile_rejects_bad_fraction():
    with pytest.raises(ValueError):
        exact_percentile([1.0], 1.5)
    with pytest.raises(ValueError):
        exact_percentile([1.0], -0.1)


# -- exact histograms ----------------------------------------------------------
# The test_p2_* ids date from when a histogram ran three P² estimators;
# they keep their names (the floor list names them) and now hold the
# histogram itself to the property each one stated.


def observed(samples, **kw):
    h = Histogram("h", **kw)
    for x in samples:
        h.observe(x)
    return h


def test_p2_empty_and_small_samples_are_exact():
    assert observed([]).percentile(0.5) == 0.0
    assert observed([5.0, 1.0, 3.0]).percentile(0.5) == 3.0


@pytest.mark.parametrize("p", [0.5, 0.95, 0.99])
def test_p2_within_5pct_of_exact_on_10k_samples(p):
    """The 5 % bound of the streaming estimator is now equality."""
    rng = random.Random(1234)
    samples = [rng.lognormvariate(0.0, 0.5) for _ in range(10_000)]
    assert observed(samples).percentile(p) == nearest_rank_percentile(sorted(samples), p)


def test_p2_is_deterministic():
    rng = random.Random(7)
    samples = [rng.random() for _ in range(500)]
    assert observed(samples).as_dict() == observed(samples).as_dict()


def nearest_rank_quantiles(xs):
    ordered = sorted(xs)
    return {f"p{round(p * 100)}": nearest_rank_percentile(ordered, p)
            for p in DEFAULT_PERCENTILES}


def check_against_reference(h, xs, total):
    """``xs``: what was observed, as floats; ``total``: their running
    ``+=`` fold."""
    assert h.count == len(xs)
    assert h.min == min(xs, default=0.0) and type(h.min) is float
    assert h.max == max(xs, default=0.0) and type(h.max) is float
    assert h.sum.hex() == total.hex()
    assert h.mean.hex() == (total / len(xs) if xs else 0.0).hex()
    want = nearest_rank_quantiles(xs)
    assert h.quantiles() == want
    assert [h.percentile(p) for p in DEFAULT_PERCENTILES] == list(want.values())
    assert h.as_dict() == {
        "name": "h", "labels": {}, "type": "histogram", "count": len(xs),
        "sum": h.sum, "min": h.min, "max": h.max, "mean": h.mean, **want,
    }


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.floats(min_value=-1e12, max_value=1e12),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.just("read"),
)))
def test_histogram_equals_reference_with_reads_between_writes(script):
    """Reads interleave with writes: the ordered view is cached by
    length and extended, and must never serve a stale or unsorted one."""
    h = Histogram("h")
    xs, total = [], 0.0
    for step in script:
        if step == "read":
            check_against_reference(h, xs, total)
        else:
            h.observe(step)
            xs.append(float(step))
            total += float(step)
    check_against_reference(h, xs, total)


def test_histogram_rejects_non_numbers_and_bad_fractions():
    h = observed([1.0])
    for junk in ("2.0", None, [3.0]):
        with pytest.raises(TypeError):
            h.observe(junk)
    assert h.count == 1
    for p in (-0.1, 1.5, 95):
        with pytest.raises(ValueError):
            Histogram("h", percentiles=(0.5, p))
    # 0 and 1 are order statistics like any other: the extremes
    ends = observed([4.0, 2.0, 8.0], percentiles=(0.0, 1.0))
    assert ends.quantiles() == {"p0": 2.0, "p100": 8.0}


# -- registry semantics --------------------------------------------------------


def test_registry_get_or_create_and_labels_canonical():
    reg = MetricRegistry()
    c1 = reg.counter("ms_x_total", app="tmi", scheme="ms-src")
    c2 = reg.counter("ms_x_total", scheme="ms-src", app="tmi")  # order-insensitive
    assert c1 is c2
    c1.inc(3)
    assert c2.value == 3.0
    assert len(reg) == 1


def test_registry_kind_mismatch_raises():
    reg = MetricRegistry()
    reg.counter("ms_x_total")
    with pytest.raises(TypeError):
        reg.gauge("ms_x_total")


def test_registry_identity_is_the_sorted_str_labels():
    """Every call canonicalises its labels (there is no per-spelling
    cache): repeated get-or-creates and ``get()`` lookups find the one
    metric, a kind mismatch raises, and ``str()`` coercion folds 1 and
    "1" into one series but keeps True apart from them although True == 1
    as a dict key."""
    reg = MetricRegistry()
    assert reg.get("ms_x_total", hau="a") is None  # not there yet
    handles = {id(reg.counter("ms_x_total", hau="a")) for _ in range(50)}
    assert len(handles) == 1 and reg.get("ms_x_total", hau="a") is not None
    with pytest.raises(TypeError):
        reg.gauge("ms_x_total", hau="a")
    assert reg.counter("ms_y_total", k=1) is reg.counter("ms_y_total", k="1")
    assert reg.counter("ms_y_total", k=True) is not reg.counter("ms_y_total", k=1)
    assert reg.counter("ms_y_total", k=True).labels == (("k", "True"),)


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("c").inc(-1.0)


def test_gauge_set_inc_dec():
    g = Gauge("g")
    g.set(5.0)
    g.inc(2.0)
    g.dec(3.0)
    assert g.value == 4.0


def test_histogram_streams_quantiles():
    h = Histogram("h")
    for i in range(1, 101):
        h.observe(float(i))
    assert h.count == 100
    assert h.min == 1.0 and h.max == 100.0
    assert h.mean == pytest.approx(50.5)
    assert h.quantiles() == {"p50": 50.0, "p95": 95.0, "p99": 99.0}
    with pytest.raises(KeyError):
        h.percentile(0.25)


def test_registry_metrics_sorted_and_select():
    reg = MetricRegistry()
    reg.counter("ms_b_total")
    reg.gauge("ms_a_bytes", hau="B")
    reg.gauge("ms_a_bytes", hau="A")
    names = [(m.name, m.labels) for m in reg.metrics()]
    assert names == sorted(names)
    assert [m.labels for m in reg.select("ms_a_")] == [
        (("hau", "A"),),
        (("hau", "B"),),
    ]
    assert reg.get("ms_b_total") is not None
    assert reg.get("ms_missing") is None
    assert len(reg) == 3  # get() never creates


def test_env_telemetry_defaults_to_null():
    """The simulation holds no registry; ``enable_telemetry`` (kept for
    ``perf/``) turns tracing on, keeps a tracer already on, and hands back
    an empty registry for the fold."""
    env = Environment()
    assert not hasattr(env, "telemetry") and not env.trace.enabled
    reg = env.enable_telemetry()
    assert env.trace.enabled and len(reg) == 0
    tracer = env.trace
    assert env.enable_telemetry() is not reg and env.trace is tracer


# -- the fold of a finished run ------------------------------------------------


def test_runtime_populates_metrics():
    env, rt, _ = deploy(MSSrc(checkpoint_times=[3.0]), source_count=60)
    rt.run(until=10.0)
    reg = fold_run(MetricRegistry(), rt)
    tuples = reg.get("ms_hau_tuples_total", hau="agg")
    assert tuples is not None and tuples.value > 0
    lat = reg.get("ms_hau_tuple_latency_seconds", hau="sink")
    assert lat is not None and lat.count > 0
    assert reg.get("ms_checkpoint_rounds_total", scheme="ms-src").value == 1.0
    sent = reg.get("ms_hau_tokens_sent_total", hau="src")
    recv = reg.get("ms_hau_tokens_received_total", hau="agg")
    assert sent is not None and sent.value >= 1.0
    assert recv is not None and recv.value >= 1.0
    wr = reg.get("ms_storage_bytes_written_total", namespace="ckpt")
    assert wr is not None and wr.value > 0


def test_runtime_without_telemetry_registers_nothing():
    """The run never touches a registry: an untraced run folds to the
    per-HAU metrics of its stage samples and run record alone."""
    env, rt, _ = deploy(MSSrc(checkpoint_times=[3.0]), telemetry=False, source_count=40)
    rt.run(until=8.0)
    assert not hasattr(env, "telemetry") and env.trace.events == ()
    reg = fold_run(MetricRegistry(), rt)
    assert reg.get("ms_checkpoint_rounds_total", scheme="ms-src") is None
    assert reg.get("ms_hau_tuples_total", hau="agg").value > 0


# -- the sampler ---------------------------------------------------------------


def test_sampler_records_per_hau_series():
    env, rt, _ = deploy(MSSrcAP(checkpoint_times=[4.0]), source_count=80)
    sampler = Sampler(rt)
    rt.run(until=10.0)
    assert sampler.samples_taken >= 9
    series = sampler.series_dict()
    depth = series["ms_hau_inbox_depth"]
    assert set(depth) == {"src", "agg", "mid", "sink"}
    for points in depth.values():
        assert len(points) == sampler.samples_taken
        assert all(t > 0 and v >= 0 for t, v in points)
    state = series["ms_hau_state_bytes"]
    assert any(v > 0 for _t, v in state["agg"])
    # preservation bytes at the source (SourcePreserver path)
    assert any(v > 0 for _t, v in series["ms_hau_preserve_bytes"]["src"])
    # a folded gauge is its series' last point
    reg = fold_run(MetricRegistry(), rt, sampler)
    assert reg.get("ms_hau_state_bytes", hau="agg").value == state["agg"][-1][1]


# -- exporters -----------------------------------------------------------------


def test_snapshot_deterministic_across_same_seed_runs():
    def one_run():
        env, rt, _ = deploy(MSSrcAP(checkpoint_times=[4.0]), seed=11, source_count=60)
        sampler = Sampler(rt)
        rt.run(until=10.0)
        return dumps_snapshot(
            snapshot(fold_run(MetricRegistry(), rt, sampler), sampler=sampler, meta={"seed": 11})
        )

    assert one_run() == one_run()


def test_snapshot_roundtrip(tmp_path):
    env, rt, _ = deploy(MSSrc(checkpoint_times=[3.0]), source_count=40)
    sampler = Sampler(rt)
    rt.run(until=8.0)
    snap = snapshot(fold_run(MetricRegistry(), rt, sampler), sampler=sampler, meta={"app": "chain"})
    path = tmp_path / "snap.json"
    write_snapshot(snap, str(path))
    assert read_snapshot(str(path)) == json.loads(dumps_snapshot(snap))


def test_snapshot_text_is_one_row_per_line():
    env, rt, _ = deploy(MSSrcAP(checkpoint_times=[4.0]), source_count=60)
    sampler = Sampler(rt)
    rt.run(until=10.0)
    reg = fold_run(MetricRegistry(), rt, sampler)
    snap = snapshot(reg, sampler=sampler, meta={"app": "chain", "seed": 7})
    text = dumps_snapshot(snap)
    assert json.loads(text) == snap
    lines = text.splitlines()
    rows = [line.rstrip(",") for line in lines]
    # every metric is one line, in registry order ...
    first = lines.index('"metrics": [') + 1
    assert [json.loads(r) for r in rows[first:first + len(snap["metrics"])]] == snap["metrics"]
    # ... every (series, hau) row is one line, and nothing else is longer
    # than a bracket or a name
    series_rows = {
        f"{json.dumps(hau)}: {json.dumps(points)}"
        for per_hau in snap["series"].values() for hau, points in per_hau.items()
    }
    assert series_rows <= set(rows)
    n_series_rows = sum(len(per_hau) for per_hau in snap["series"].values())
    assert len(lines) == 7 + len(snap["metrics"]) + 2 * len(snap["series"]) + n_series_rows
    # an empty snapshot is still a document
    empty = {"meta": {}, "metrics": [], "series": {}}
    assert json.loads(dumps_snapshot(empty)) == empty
    with pytest.raises(ValueError):  # NaN never reaches a file
        dumps_snapshot({"meta": {"x": float("nan")}, "metrics": [], "series": {}})


def test_render_empty_snapshot():
    assert "empty" in render_snapshot({"meta": {}, "metrics": [], "series": {}})


def test_report_cli(tmp_path, capsys):
    env, rt, _ = deploy(MSSrc(checkpoint_times=[3.0]), source_count=30)
    rt.run(until=6.0)
    path = tmp_path / "snap.json"
    write_snapshot(snapshot(fold_run(MetricRegistry(), rt), meta={"scheme": "ms-src"}), str(path))
    assert inspect_main(["show", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scheme=ms-src" in out
    with pytest.raises(SystemExit) as exc:
        inspect_main(["show"])
    assert exc.value.code == 2
    assert inspect_main(["show", str(tmp_path / "missing.json")]) == 2


# -- harness integration -------------------------------------------------------


def test_run_experiment_telemetry(tmp_path):
    from repro.harness import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        app="tmi", scheme="ms-src", n_checkpoints=1, window=20.0, warmup=5.0,
        workers=8, spares=10, racks=2, seed=3, app_params={"n_minutes": 0.1},
    )
    res = run_experiment(cfg, telemetry=True)
    assert res.telemetry is not None and len(res.telemetry) > 0
    assert res.telemetry_sampler is not None
    assert set(res.latency_percentiles) == {"p50", "p95", "p99"}
    assert res.latency_percentiles["p50"] <= res.latency_percentiles["p99"]
    snap = res.telemetry_snapshot()
    assert snap["meta"] == {"app": "tmi", "scheme": "ms-src", "seed": 3}
    assert snap["metrics"] and snap["series"]
    path = tmp_path / "telemetry.json"
    res.write_telemetry(str(path))
    assert read_snapshot(str(path)) == json.loads(res.telemetry_json())

    plain = run_experiment(cfg)
    assert plain.telemetry is None
    with pytest.raises(RuntimeError):
        plain.telemetry_snapshot()


# -- two independent records of one run -----------------------------------------


@pytest.fixture(scope="module")
def observed_run():
    return pins.observed_run()


def test_latency_histograms_agree_with_the_metrics_hub(observed_run):
    """The per-HAU latency histograms are ``MetricsHub.stage_samples``
    folded (the one record of a processed tuple): per HAU, the same count
    and the same nearest-rank quantiles."""
    by_hau: dict[str, list[float]] = {}
    for hau_id, created, done in observed_run.runtime.metrics.stage_samples:
        by_hau.setdefault(hau_id, []).append(done - created)
    histograms = observed_run.telemetry.select("ms_hau_tuple_latency_seconds")
    busy = {dict(h.labels)["hau"]: h for h in histograms if h.count}
    assert busy.keys() == by_hau.keys() and len(busy) > 10
    for hau_id, latencies in by_hau.items():
        h = busy[hau_id]
        assert h.count == len(latencies)
        assert h.quantiles() == nearest_rank_quantiles(latencies)


def test_snapshot_minus_percentiles_is_the_streaming_parents(observed_run):
    # exact histograms moved p50/p95/p99 and nothing else of the snapshot
    pins.check(
        "observed-run/snapshot-minus-percentiles", pins.snapshot_minus_percentiles(observed_run)
    )


def test_snapshot_is_built_once_and_every_export_reads_it(observed_run, tmp_path):
    snap = observed_run.telemetry_snapshot()
    assert observed_run.telemetry_snapshot() is snap
    text = observed_run.telemetry_json()
    assert text == observed_run.telemetry_json() == dumps_snapshot(snap)
    path = tmp_path / "run.telemetry.json"
    digest = pins.telemetry_file(observed_run, path)
    assert path.read_text(encoding="utf-8") == text
    bundled = observed_run.run_bundle()["files"]["telemetry.json"]
    assert bundled is snap
    # the snapshot is built once and cached: the file moved by no byte
    pins.check("observed-run/telemetry-file", digest)


#: What the recovery cell and the observed run leave at zero.
COVERAGE_ONLY = (
    "ms_baseline_recovered_total", "ms_baseline_unrecoverable_total",
    "ms_holdback_drained_total", "ms_aa_smax_bytes", "ms_aa_dynamic_haus",
    "ms_aa_turning_points_total", "ms_aa_decisions_total", "ms_alerts_resolved_total",
)


@pytest.fixture(scope="module")
def coverage_runs():
    return pins.coverage_runs()


def test_coverage_runs_pin_their_telemetry_files(coverage_runs, tmp_path):
    for name, res in coverage_runs.items():
        path = tmp_path / f"{name}.telemetry.json"
        pins.check(f"{name}/telemetry-file", pins.telemetry_file(res, path))


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND (ROADMAP item 4(b)): a HAU the baseline declares"
    " unrecoverable is re-detected dead and restarted"
))
def test_no_baseline_hau_is_both_unrecoverable_and_recovered(coverage_runs):
    """Today ``m`` is declared unrecoverable at 30.362 s, detected dead
    again at 31.729 s and restarted (``baseline.recover.done``) at
    32.102 s, so both lists name it."""
    scheme = coverage_runs["baseline-run"].scheme
    lost = {hau for _t, hau in scheme.unrecoverable}
    assert lost.isdisjoint(hau for _t, hau in scheme.recovered)


def test_every_metric_is_nonzero_in_some_pinned_snapshot(coverage_runs, observed_run):
    """Each metric of the schema reads nonzero in at least one pinned
    snapshot, so a pin moves if any of them does; the coverage runs reach
    the eight the observed run (and the recovery cell) leave at zero, the
    aa run both decision reasons."""
    runs = {"observed-run": observed_run, **coverage_runs}
    reached: dict[str, set[str]] = {}
    for name, res in runs.items():
        for metric in res.telemetry_snapshot()["metrics"]:
            if metric.get("value", metric.get("count")):
                reached.setdefault(metric["name"], set()).add(name)
    schema = [name for names, _labels, _by in METRICS for name in names]
    assert [name for name in schema if name not in reached] == []
    assert all(reached[name] - {"observed-run"} for name in COVERAGE_ONLY)
    decisions = coverage_runs["aa-run"].telemetry.select("ms_aa_decisions_total")
    assert {dict(m.labels)["reason"] for m in decisions if m.value} == {"icr", "deadline"}


def test_a_run_makes_no_telemetry_calls():
    """Count gate (a count, so it cannot flake): with telemetry on, the
    simulation enters ``repro.telemetry`` Python code not once — every
    metric is folded after the run.  It was two calls a processed tuple
    while the HAUs counted, 10.8 when each observation fed three
    estimators."""
    from repro.apps import synth
    from repro.dsps.runtime import CheckpointScheme

    topology = {
        "stages": [
            {"name": "S", "kind": "source", "count": 50, "interval": 0.005, "size": 4096},
            {"name": "W", "kind": "map", "size": 4096},
            {"name": "A", "kind": "map", "size": 4096},
            {"name": "B", "kind": "map", "size": 4096},
            {"name": "K", "kind": "sink"},
        ],
        "edges": [{"src": a, "dst": b} for a, b in ("SW", "WA", "AB", "BK")],
    }
    env = Environment()
    registry = env.enable_telemetry()
    rt = DSPSRuntime(
        env, synth.build(seed=1, topology=topology), CheckpointScheme(),
        RuntimeConfig(cluster=ClusterSpec(workers=4, spares=2, racks=2)),
    )
    rt.start()
    package = str(Path(sys.modules["repro.telemetry"].__file__).parent)
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(count)
    try:
        env.run(until=5.0)
    finally:
        sys.setprofile(None)
    tuples = sum(hau.tuples_processed for hau in rt.haus.values())
    assert tuples == 200  # 50 from the source through four processing stages
    assert calls == 0
    latency = fold_run(registry, rt).select("ms_hau_tuple_latency_seconds")
    assert sum(h.count for h in latency) == tuples


# -- small-sample quantiles (exact order statistics) ----------------------------


def test_nearest_rank_percentile_is_an_observed_value():
    assert nearest_rank_percentile([], 0.99) == 0.0
    assert nearest_rank_percentile([7.0], 0.99) == 7.0
    # ceil(q * n)-th order statistic, never an interpolation
    vals = [1.0, 2.0, 3.0]
    assert nearest_rank_percentile(vals, 0.99) == 3.0
    assert nearest_rank_percentile(vals, 0.5) == 2.0
    assert nearest_rank_percentile(vals, 0.0) == 1.0  # rank floor is 1
    assert nearest_rank_percentile([1.0, 2.0], 0.5) == 1.0
    with pytest.raises(ValueError):
        nearest_rank_percentile([1.0], 1.5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_p2_tail_quantiles_exact_below_five_observations(n):
    """Regression: p99 of a tiny window is its maximum — an actual
    observation — not a linear interpolation 2% below anything measured."""
    samples = [float(x) for x in range(10, 10 + n)]
    h = observed(samples)
    for p in DEFAULT_PERCENTILES:
        assert h.percentile(p) == nearest_rank_percentile(samples, p)
        assert h.percentile(p) in samples
    # in particular the tail of a 3-sample window is its max
    assert observed([0.3, 0.1, 0.2]).percentile(0.99) == 0.3


def test_histogram_small_sample_percentile_is_observed():
    reg = MetricRegistry()
    h = reg.histogram("ms_x_seconds")
    for x in (4.0, 2.0, 8.0):
        h.observe(x)
    assert h.percentile(0.99) == 8.0
    assert h.percentile(0.5) == 4.0


# -- one trace record ------------------------------------------------------------


def test_a_trace_file_reads_back_to_the_live_events_and_timelines_share_them(
    observed_run, tmp_path
):
    """``TraceEvent`` is the one event type: the JSONL file converts back
    to events equal to the live tracer's, and a timeline of the live run
    holds the tracer's own event objects, not copies."""
    from repro.observability import read_jsonl

    path = tmp_path / "run.trace.jsonl"
    observed_run.write_trace(str(path))
    live = observed_run.tracer.events
    assert read_jsonl(str(path)) == live
    events = observed_run.timeline().events
    assert len(events) == len(live)
    assert all(events[i] is live[i] for i in range(len(live)))
