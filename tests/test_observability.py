"""Tests for the structured tracing layer (repro.observability):
tracer semantics, no-op default, deterministic JSONL export, and
end-to-end checkpoint/recovery timelines."""

import json

import pytest

from repro.cluster import ClusterSpec
from repro.cluster.topology import DataCenter
from repro.core import MSSrc, MSSrcAP
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import make_chain_graph
from repro.failures.injector import FailureInjector, FailurePlan, PlannedFailure
from repro.observability import (
    NULL_TRACER,
    JsonlStreamWriter,
    TraceEvent,
    Tracer,
    dumps_jsonl,
    event_to_json,
    read_jsonl,
    render_summary,
    summarize,
    write_jsonl,
    write_summary,
)
from repro.simulation import Environment


def deploy(scheme, seed=7, workers=4, spares=6, traced=True, **graph_kw):
    g, holder = make_chain_graph(**graph_kw)
    env = Environment()
    if traced:
        env.enable_tracing()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=g),
        scheme,
        RuntimeConfig(seed=seed, cluster=ClusterSpec(workers=workers, spares=spares, racks=2)),
    )
    rt.start()
    return env, rt, holder


def kill_at(env, rt, when, victims):
    def killer():
        yield env.timeout(when)
        for h in victims:
            rt.haus[h].node.fail("test")

    env.process(killer())


# -- tracer unit behaviour ------------------------------------------------------


def test_tracer_emit_select_counts():
    tr = Tracer()
    tr.emit("token.send", t=1.0, subject="src", round=1, edge="e1")
    tr.emit("token.send", t=1.5, subject="mid", round=1, edge="e2")
    tr.emit("checkpoint.commit", t=2.0, subject="src", round=1, bytes=10)
    assert len(tr) == 3
    assert [e.seq for e in tr] == [1, 2, 3]
    assert tr.counts() == {"checkpoint.commit": 1, "token.send": 2}
    assert [e.subject for e in tr.select(kind="token.send")] == ["src", "mid"]
    assert [e.kind for e in tr.select(subject="src")] == ["token.send", "checkpoint.commit"]
    assert tr.select(prefix="checkpoint.")[0].get("bytes") == 10
    assert tr.select(prefix="checkpoint.")[0].get("missing", 42) == 42


def test_tracer_subscribe_streams_each_event():
    tr = Tracer()
    seen = []
    tr.subscribe(seen.append)
    tr.emit("hau.start", t=0.0, subject="a")
    tr.emit("hau.start", t=0.0, subject="b")
    assert [e.subject for e in seen] == ["a", "b"]


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.emit("anything", t=0.0) is None
    assert NULL_TRACER.events == ()
    with pytest.raises(RuntimeError):
        NULL_TRACER.subscribe(lambda e: None)


def test_jsonl_is_canonical_and_round_trips(tmp_path):
    ev = TraceEvent(seq=1, t=2.5, kind="checkpoint.commit", subject="src",
                    data=(("bytes", 10), ("round", 1)))
    line = event_to_json(ev)
    # canonical: sorted keys, compact separators
    assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    tr = Tracer()
    tr.emit("a.b", t=0.0, subject="x", n=1)
    tr.emit("c.d", t=1.0, subject="y", m=2.5)
    path = tmp_path / "trace.jsonl"
    assert write_jsonl(tr, str(path)) == 2
    back = read_jsonl(str(path))
    assert [r["kind"] for r in back] == ["a.b", "c.d"]
    assert back[1]["data"] == {"m": 2.5}
    assert path.read_text() == dumps_jsonl(tr)


def test_stream_writer_matches_batch_export(tmp_path):
    tr = Tracer()
    path = tmp_path / "stream.jsonl"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = JsonlStreamWriter(fh)
        tr.subscribe(writer)
        tr.emit("a.b", t=0.0, subject="x", n=1)
        tr.emit("a.b", t=1.0, subject="y", n=2)
    assert writer.written == 2
    assert path.read_text() == dumps_jsonl(tr)


# -- no-op default: untraced runs record nothing -------------------------------


def test_untraced_run_records_no_events():
    scheme = MSSrc(checkpoint_times=[1.0])
    env, rt, _ = deploy(scheme, traced=False)
    env.run(until=10.0)
    assert env.trace is NULL_TRACER
    assert len(env.trace.events) == 0
    # the run itself still checkpointed normally
    assert scheme.checkpoint_logs()[0].complete


# -- determinism: same seed => byte-identical JSONL ------------------------------


def run_traced(seed=7):
    scheme = MSSrcAP(checkpoint_times=[1.0, 4.0], enable_recovery=True)
    # a source that outlives the failure instant, so recovery has
    # preserved tuples to replay
    env, rt, _ = deploy(scheme, seed=seed, source_count=400)
    kill_at(env, rt, 6.0, ["agg"])
    env.run(until=25.0)
    return env.trace


def test_same_seed_byte_identical_jsonl():
    a = dumps_jsonl(run_traced())
    b = dumps_jsonl(run_traced())
    assert a == b
    assert a.encode("utf-8") == b.encode("utf-8")
    kinds = {json.loads(line)["kind"] for line in a.splitlines()}
    # the acceptance criterion: checkpoint, token, failure and recovery
    # events are all present in one deterministic trace
    assert "checkpoint.commit" in kinds
    assert "token.send" in kinds and "token.recv" in kinds
    assert "failure.detected" in kinds
    assert "recovery.start" in kinds and "recovery.done" in kinds
    assert "replay.source" in kinds


def test_failure_injector_emits_trace_events():
    env = Environment()
    tr = env.enable_tracing()
    dc = DataCenter(env, ClusterSpec(workers=4, spares=2, racks=2))
    node_id = dc.workers[0].node_id
    rack_id = dc.racks[1].rack_id
    plan = FailurePlan(events=[
        PlannedFailure(at=1.0, kind="node", target=node_id, cause="single"),
        PlannedFailure(at=2.0, kind="rack", target=rack_id, cause="rack-burst"),
    ])
    FailureInjector(env, dc, plan).start()
    env.run(until=5.0)
    injects = tr.select(kind="failure.inject")
    assert [(e.subject, e.get("kind")) for e in injects] == [
        (node_id, "node"),
        (rack_id, "rack"),
    ]
    assert injects[1].get("victims", 0) >= 1


# -- end-to-end: MS-src emits matching token/checkpoint spans per HAU ------------


def test_ms_src_token_and_commit_spans_match_per_hau():
    scheme = MSSrc(checkpoint_times=[1.0])
    env, rt, _ = deploy(scheme)
    env.run(until=10.0)
    tr = env.trace
    haus = sorted(rt.app.graph.haus)
    commits = tr.select(kind="checkpoint.commit")
    # exactly one commit per HAU for round 1
    assert sorted(e.subject for e in commits) == haus
    assert all(e.get("round") == 1 for e in commits)
    assert all(e.get("scheme") == "ms-src" for e in commits)
    # every HAU with out-edges forwarded the cascade token on each out-edge
    sends = tr.select(kind="token.send")
    for hau_id in haus:
        n_out = len(rt.app.graph.out_edges(hau_id))
        hau_sends = [e for e in sends if e.subject == hau_id]
        assert len(hau_sends) == n_out
        # the token leaves only after (or exactly when) the HAU's write began:
        # MS-src forwards inside the synchronous individual checkpoint
        (write_start,) = tr.select(kind="checkpoint.write.start", subject=hau_id)
        for e in hau_sends:
            assert e.t >= write_start.t
    # token receives pair up with sends (every sent token lands downstream)
    recvs = tr.select(kind="token.recv")
    assert len(recvs) == len(sends)
    # the round closes once every HAU committed
    (complete,) = tr.select(kind="checkpoint.round.complete")
    assert complete.get("round") == 1
    assert complete.t >= max(e.t for e in commits)


# -- summary folding -------------------------------------------------------------


def test_summary_checkpoint_timeline_and_recovery_phases():
    tracer = run_traced()
    summary = summarize(tracer)
    assert summary["n_events"] == len(tracer.events)
    rounds = {r["round_id"]: r for r in summary["rounds"]}
    assert 1 in rounds
    r1 = rounds[1]
    assert r1["scheme"] == "ms-src+ap"
    assert r1["completed_at"] is not None
    assert r1["wall_clock"] >= 0.0
    for ent in r1["haus"].values():
        assert ent["commit_at"] is not None
        assert ent["mode"] == "async"
    # recovery timeline: one global rollback with its four phases
    assert len(summary["recoveries"]) == 1
    rec = summary["recoveries"][0]
    assert rec["dead"] == "agg"
    assert rec["completed_at"] is not None
    assert set(rec["phases"]) == {"reload", "disk_io", "deserialize", "reconnect"}
    # the paper's recovery time is the four phases; completed_at also
    # covers the source-replay queuing that follows
    # phase values are per-phase maxima across HAUs, so they sum only
    # approximately to the elapsed recovery time
    assert rec["total"] == pytest.approx(sum(rec["phases"].values()), abs=0.01)
    assert rec["completed_at"] - rec["started_at"] >= rec["total"]
    assert len(rec["haus"]) == len(tracer.select(kind="recovery.hau"))
    assert summary["replays"]["source"] > 0
    # failures observed by the watcher appear on the failure timeline
    assert any(f["kind"] == "failure.detected" for f in summary["failures"])
    # and the renderer shows the important lines
    text = render_summary(summary)
    assert "checkpoint rounds:" in text
    assert "recoveries (global rollback):" in text
    assert "replays:" in text


def test_experiment_harness_trace_roundtrip(tmp_path):
    from repro.harness import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        app="tmi", scheme="ms-src", n_checkpoints=1, window=30.0, warmup=10.0,
        workers=6, spares=8, racks=2, seed=3, app_params={"n_minutes": 0.25},
    )
    res = run_experiment(cfg, trace=True)
    assert res.tracer is not None and len(res.tracer.events) > 0
    path = tmp_path / "run.trace.jsonl"
    assert res.write_trace(str(path)) == len(res.tracer.events)
    assert path.read_text() == res.trace_jsonl()
    summary = res.trace_summary()
    assert summary["rounds"] and summary["rounds"][0]["completed_at"] is not None
    assert "checkpoint rounds:" in res.trace_report()
    # untraced runs refuse trace access loudly
    res2 = run_experiment(cfg)
    assert res2.tracer is None
    with pytest.raises(RuntimeError):
        res2.trace_jsonl()


# -- export/summary edge cases: empty traces and single events ------------------


def test_export_empty_trace(tmp_path):
    tr = Tracer()
    assert dumps_jsonl(tr) == ""
    path = tmp_path / "empty.jsonl"
    assert write_jsonl(tr, str(path)) == 0
    assert path.read_text() == ""
    assert read_jsonl(str(path)) == []


def test_export_single_event_roundtrip(tmp_path):
    tr = Tracer()
    tr.emit("hau.start", t=1.5, subject="w0", node="n3")
    text = dumps_jsonl(tr)
    assert text.endswith("\n") and text.count("\n") == 1
    path = tmp_path / "one.jsonl"
    assert write_jsonl(tr, str(path)) == 1
    [parsed] = read_jsonl(str(path))
    assert parsed == json.loads(text)
    assert parsed["kind"] == "hau.start"
    assert parsed["t"] == 1.5
    assert parsed["data"] == {"node": "n3"}


def test_jsonl_stream_writer_empty(tmp_path):
    path = tmp_path / "stream.jsonl"
    tr = Tracer()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = JsonlStreamWriter(fh)
        tr.subscribe(writer)
    assert writer.written == 0
    assert path.read_text() == ""


def test_summarize_empty_trace():
    summary = summarize(Tracer())
    assert summary["n_events"] == 0
    assert summary["span"] == [0.0, 0.0]
    assert summary["counts"] == {}
    assert summary["rounds"] == []
    assert summary["recoveries"] == []
    report = render_summary(summary)
    assert "0 events" in report
    # no optional sections appear for an empty trace
    assert "checkpoint rounds:" not in report
    assert "recoveries" not in report


def test_summarize_single_event():
    tr = Tracer()
    tr.emit("checkpoint.round.start", t=3.0, subject="ms-src", round=1)
    summary = summarize(tr)
    assert summary["n_events"] == 1
    assert summary["span"] == [3.0, 3.0]
    assert summary["counts"] == {"checkpoint.round.start": 1}
    [entry] = summary["rounds"]
    assert entry["round_id"] == 1
    assert entry["started_at"] == 3.0
    assert entry["completed_at"] is None
    report = render_summary(summary)
    assert "round 1 [ms-src] open at end of run (0 HAUs reached" in report


def test_write_summary_of_empty_trace_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_summary(summarize(Tracer()), str(a))
    write_summary(summarize(Tracer()), str(b))
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["n_events"] == 0
