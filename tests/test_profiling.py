"""Tests for repro.observability's trace fold: timeline reconstruction,
critical paths, straggler attribution and Chrome-trace (Perfetto) export
(the trace reader, ``python -m repro.inspect show``, is tested in
test_inspect.py).

The acceptance invariant: a round's critical-path hops are contiguous
and tile ``[round.start, round.complete]`` exactly, so the reported
seconds equal the round duration — asserted here with the hop sequence
hand-verified against the raw trace events.
"""

import json

import pytest

from repro.cluster import ClusterSpec
from repro.core import MSSrc, MSSrcAP
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import make_chain_graph, make_diamond_graph
from repro.metrics.breakdown import CheckpointBreakdown, CheckpointLog
from repro.observability import (
    Timeline,
    TraceEvent,
    build_timeline,
    compute_critical_path,
    critical_paths,
    dumps_chrome_trace,
    straggler_report,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.simulation import Environment
from repro.vocabulary import PHASES


def deploy(graph_fn, scheme, seed=7, workers=6, spares=6, **graph_kw):
    g, holder = graph_fn(**graph_kw)
    env = Environment()
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


def first(tracer, kind, subject=None, **match):
    for e in tracer.select(kind=kind):
        if subject is not None and e.subject != subject:
            continue
        if all(e.get(k) == v for k, v in match.items()):
            return e
    raise AssertionError(f"no {kind} event matching subject={subject} {match}")


# -- timeline reconstruction ----------------------------------------------------


def test_round_wave_reconstructs_every_hau_with_ordered_phases():
    scheme = MSSrc(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    tl = build_timeline(env.trace)
    assert tl.scheme == "ms-src"
    wave = tl.round(1)
    assert wave is not None and wave.complete
    assert set(wave.haus) == set(rt.app.graph.haus)
    assert wave.incomplete_haus() == []
    for hc in wave.haus.values():
        assert hc.complete and hc.elapsed is not None and hc.elapsed > 0.0
        spans = hc.phase_spans()
        assert [s.name for s in spans] == list(PHASES)
        # phases are causally ordered and contiguous
        for a, b in zip(spans, spans[1:]):
            assert a.end == b.start
    # wave covers [round.start, round.complete]
    assert wave.duration == pytest.approx(
        max(hc.write_end_at for hc in wave.haus.values()) - wave.started_at,
        abs=1e-6,
    )


def test_timeline_agrees_with_metrics_breakdown():
    # the whole-suite version (11 pinned cells) is tests/test_live_equals_fold.py
    scheme = MSSrc(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    assert build_timeline(env.trace).rounds == scheme.checkpoint_logs()


def test_recovery_timeline_from_traced_failure():
    scheme = MSSrcAP(checkpoint_times=[1.0], enable_recovery=True)
    env, rt, _ = deploy(make_chain_graph, scheme, source_count=400)
    kill_at(env, rt, 6.0, ["agg"])
    env.run(until=25.0)
    tl = build_timeline(env.trace)
    assert len(tl.recoveries) == 1
    rec = tl.recoveries[0]
    assert rec.complete and rec.dead == "agg"
    # kill_at fails the node directly (no injector), so there is no
    # failure.inject event — only the watcher's detection
    assert rec.detected_at is not None
    assert rec.total is not None and rec.total > 0.0
    # every recovered HAU has stacked reload -> disk-io -> deserialize spans
    assert len(rec.haus) == len(env.trace.select(kind="recovery.hau"))
    for rh in rec.haus.values():
        spans = rh.phase_spans()
        assert [s.name for s in spans] == ["reload", "disk-io", "deserialize"]
        for a, b in zip(spans, spans[1:]):
            assert a.end == b.start
    # recovery.hau.start anchors the phases
    starts = env.trace.select(kind="recovery.hau.start")
    assert sorted(e.subject for e in starts) == sorted(rec.haus)


# -- critical paths: acceptance invariant ---------------------------------------


def assert_tiles_round(cp, tracer, round_id):
    """The acceptance criterion: hops are contiguous and tile the round."""
    start = first(tracer, "checkpoint.round.start", round=round_id)
    complete = first(tracer, "checkpoint.round.complete", round=round_id)
    assert cp.started_at == start.t and cp.completed_at == complete.t
    assert cp.seconds == pytest.approx(complete.t - start.t, abs=1e-9)
    assert cp.hop_sum() == pytest.approx(cp.seconds, abs=1e-9)
    assert cp.hops[0].start == start.t and cp.hops[-1].end == complete.t
    for a, b in zip(cp.hops, cp.hops[1:]):
        assert a.end == b.start


def test_ms_src_ap_critical_path_hand_verified_against_trace():
    """MS-src+ap on a chain: the source inserts its 1-hop token the
    instant the command reaches it, so the HAU with the largest state
    (``agg``, behind it) gates the round, and every hop boundary is
    pinned to a specific raw trace event."""
    scheme = MSSrcAP(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    tr = env.trace
    cp = compute_critical_path(tr, 1)
    assert cp is not None
    assert_tiles_round(cp, tr, 1)
    assert cp.gating_hau == "agg"
    assert [(h.kind, h.subject) for h in cp.hops] == [
        ("round-start", "ms-src+ap"),
        ("control-hop", "src"),
        ("token-insert", "src"),
        ("token-hop", "src->agg"),
        ("token-wait", "agg"),
        ("safepoint-wait", "agg"),
        ("snapshot", "agg"),
        ("disk-io", "agg"),
        ("round-complete", "ms-src+ap"),
    ]
    # hand-verify each boundary against the trace events it came from
    start = first(tr, "checkpoint.round.start", round=1)
    ctrl = first(tr, "control.send", subject="src")
    cmd = first(tr, "checkpoint.command", subject="src", round=1)
    send = first(tr, "token.send", subject="src", round=1)
    recv = first(tr, "token.recv", subject="agg", round=1, origin="src")
    td = first(tr, "checkpoint.tokens.done", subject="agg", round=1)
    cs = first(tr, "checkpoint.start", subject="agg", round=1)
    ws = first(tr, "checkpoint.write.start", subject="agg", round=1)
    commit = first(tr, "checkpoint.commit", subject="agg", round=1)
    complete = first(tr, "checkpoint.round.complete", round=1)
    # the source forks and sends its token at the command's instant
    assert first(tr, "checkpoint.start", subject="src", round=1).t == cmd.t == send.t
    hop = {h.kind: h for h in cp.hops}
    assert hop["round-start"].start == start.t and hop["round-start"].end == ctrl.t
    assert hop["control-hop"].start == ctrl.t and hop["control-hop"].end == cmd.t
    assert hop["token-insert"].start == cmd.t and hop["token-insert"].end == send.t
    assert hop["token-hop"].start == send.t and hop["token-hop"].end == recv.t
    assert hop["token-wait"].start == recv.t and hop["token-wait"].end == td.t
    assert hop["safepoint-wait"].start == td.t and hop["safepoint-wait"].end == cs.t
    assert hop["snapshot"].start == cs.t and hop["snapshot"].end == ws.t
    assert hop["disk-io"].start == ws.t and hop["disk-io"].end == commit.t
    assert hop["round-complete"].start == commit.t and hop["round-complete"].end == complete.t


def test_ms_src_cascade_critical_path_walks_the_whole_chain():
    """MS-src: the synchronous token cascade makes the sink the gate and
    the path traverses every edge src -> agg -> mid -> sink."""
    scheme = MSSrc(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_chain_graph, scheme)
    env.run(until=10.0)
    cp = compute_critical_path(env.trace, 1)
    assert cp is not None
    assert_tiles_round(cp, env.trace, 1)
    assert cp.gating_hau == "sink"
    per_hau = ["token-wait", "safepoint-wait", "snapshot", "disk-io"]
    assert [h.kind for h in cp.hops] == (
        ["round-start", "control-hop", "command-wait",
         "safepoint-wait", "snapshot", "disk-io"]
        + (["token-forward", "token-hop"] + per_hau) * 3
        + ["round-complete"]
    )
    assert [h.subject for h in cp.hops if h.kind == "token-hop"] == [
        "src->agg", "agg->mid", "mid->sink",
    ]


def test_diamond_critical_path_takes_max_over_parents():
    """The join waits for both branches; the path must follow whichever
    token arrived last (verified directly against the arrivals)."""
    scheme = MSSrc(checkpoint_times=[1.0])
    env, rt, _ = deploy(make_diamond_graph, scheme)
    env.run(until=15.0)
    tr = env.trace
    cp = compute_critical_path(tr, 1)
    assert cp is not None
    assert_tiles_round(cp, tr, 1)
    assert cp.gating_hau == "sink"
    join_recvs = [e for e in tr.select(kind="token.recv") if e.subject == "join"]
    assert len(join_recvs) == 2
    last_origin = max(join_recvs, key=lambda e: (e.t, e.seq)).get("origin")
    hop_edges = [h.subject for h in cp.hops if h.kind == "token-hop"]
    assert f"{last_origin}->join" in hop_edges
    other = ({"a", "b"} - {last_origin}).pop()
    assert f"{other}->join" not in hop_edges


def test_critical_paths_covers_every_complete_round():
    scheme = MSSrcAP(checkpoint_times=[1.0, 4.0])
    env, rt, _ = deploy(make_chain_graph, scheme, source_count=400)
    env.run(until=10.0)
    paths = critical_paths(env.trace)
    assert [p.round_id for p in paths] == [1, 2]
    for p in paths:
        assert_tiles_round(p, env.trace, p.round_id)


# -- critical paths: deterministic tie-breaks (synthetic traces) ----------------


def ev(seq, t, kind, subject, **data):
    return TraceEvent(seq, t, kind, subject, dict(sorted(data.items())))


def two_source_round(commit_a=1.05, commit_b=1.05, a="agg", b="agg2"):
    """A synthetic MS-src+ap-style round: two sources, no tokens."""
    events = [ev(1, 1.0, "checkpoint.round.start", "sch", round=1)]
    seq = 2
    for hau, commit in ((a, commit_a), (b, commit_b)):
        events += [
            ev(seq, 1.0, "control.send", hau, message="checkpoint"),
            ev(seq + 1, 1.001, "checkpoint.command", hau, round=1, via="control"),
            ev(seq + 2, 1.001, "checkpoint.tokens.done", hau, round=1, edges=0),
            ev(seq + 3, 1.002, "checkpoint.start", hau, round=1, mode="async"),
            ev(seq + 4, 1.003, "checkpoint.write.start", hau, round=1),
            ev(seq + 5, commit, "checkpoint.commit", hau, round=1, bytes=10),
        ]
        seq += 6
    last = max(commit_a, commit_b)
    events.append(ev(seq, last, "checkpoint.round.complete", "sch", round=1))
    return events


def test_gating_commit_tie_breaks_by_smallest_hau_id():
    # exact tie: the smaller HAU id wins, and "agg" < "agg2" despite the
    # shared prefix
    cp = compute_critical_path(two_source_round(), 1)
    assert cp.gating_hau == "agg"
    # no tie: the later commit gates regardless of id order
    cp = compute_critical_path(two_source_round(commit_b=1.06), 1)
    assert cp.gating_hau == "agg2"
    assert cp.seconds == pytest.approx(0.06)
    assert cp.hop_sum() == pytest.approx(cp.seconds)


def front_token_round(recv_m1=1.01, recv_m2=1.01):
    """Two upstream HAUs insert front tokens toward one receiver ``z``."""
    events = [
        ev(1, 1.0, "checkpoint.round.start", "sch", round=1),
        ev(2, 1.0, "control.send", "m1", message="checkpoint"),
        ev(3, 1.0, "control.send", "m2", message="checkpoint"),
        ev(4, 1.001, "checkpoint.command", "m1", round=1, via="control"),
        ev(5, 1.001, "checkpoint.command", "m2", round=1, via="control"),
        ev(6, 1.002, "token.send", "m1", round=1, edge="m1[0]->z[0]", front=True),
        ev(7, 1.002, "token.send", "m2", round=1, edge="m2[0]->z[1]", front=True),
        ev(8, recv_m2, "token.recv", "z", round=1, origin="m2", edge_idx=1),
        ev(9, recv_m1, "token.recv", "z", round=1, origin="m1", edge_idx=0),
        ev(10, max(recv_m1, recv_m2), "checkpoint.tokens.done", "z", round=1, edges=2),
        ev(11, 1.011, "checkpoint.start", "z", round=1, mode="sync"),
        ev(12, 1.012, "checkpoint.write.start", "z", round=1),
        ev(13, 1.02, "checkpoint.commit", "z", round=1, bytes=10),
        ev(14, 1.02, "checkpoint.round.complete", "sch", round=1),
    ]
    return events


def test_same_instant_arrivals_tie_break_by_smallest_origin():
    cp = compute_critical_path(front_token_round(), 1)
    assert cp.gating_hau == "z"
    assert [h.subject for h in cp.hops if h.kind == "token-hop"] == ["m1->z"]
    # the front token roots through token-insert + control-hop + round-start
    assert [h.kind for h in cp.hops] == [
        "round-start", "control-hop", "token-insert", "token-hop",
        "token-wait", "safepoint-wait", "snapshot", "disk-io",
        "round-complete",
    ]
    assert cp.hop_sum() == pytest.approx(cp.seconds)
    # a genuinely later arrival wins over id order
    cp = compute_critical_path(front_token_round(recv_m2=1.015), 1)
    assert [h.subject for h in cp.hops if h.kind == "token-hop"] == ["m2->z"]


def test_critical_path_absent_for_incomplete_round():
    events = two_source_round()[:-1]  # drop round.complete
    assert compute_critical_path(events, 1) is None
    assert critical_paths(events) == []


# -- stragglers -----------------------------------------------------------------


def test_straggler_report_flags_above_k_times_median():
    wave = CheckpointLog(round_id=1, scheme="sch", started_at=0.0, completed_at=6.0)
    for hau, total in (("a", 1.0), ("b", 1.2), ("c", 5.0)):
        wave.haus[hau] = CheckpointBreakdown(
            hau_id=hau, round_id=1, command_at=0.0, write_end_at=total
        )
    tl = Timeline(rounds=[wave], scheme="sch")
    report = straggler_report(tl, k=2.0)
    assert [(s.hau_id, s.round_id) for s in report] == [("c", 1)]
    (s,) = report
    assert s.median_seconds == pytest.approx(1.2)
    assert s.ratio == pytest.approx(5.0 / 1.2)
    # raising k past the outlier silences the report
    assert straggler_report(tl, k=5.0) == []


def test_straggler_report_needs_at_least_two_samples():
    wave = CheckpointLog(round_id=1, scheme="sch", started_at=0.0)
    wave.haus["a"] = CheckpointBreakdown(hau_id="a", round_id=1, command_at=0.0, write_end_at=9.0)
    assert straggler_report(Timeline(rounds=[wave])) == []


# -- interrupted rounds (breakdown regression) ----------------------------------


def test_checkpoint_log_lists_haus_that_never_reported():
    # Regression: a round interrupted before an HAU even saw the command
    # used to read as clean — expected_haus makes the absence visible.
    log = CheckpointLog(round_id=1, started_at=1.0, expected_haus=("a", "b", "c"))
    done = log.breakdown("a")
    done.tokens_done_at = 1.1
    done.write_start_at = 1.2
    done.write_end_at = 1.3
    stalled = log.breakdown("b")
    stalled.tokens_done_at = 1.1  # died before its write finished
    assert not log.complete
    assert log.incomplete_haus() == ["b", "c"]


def test_mid_round_failure_reports_incomplete_haus_not_silence():
    """A failure landing mid checkpoint round must leave the interrupted
    round marked incomplete with the affected HAUs listed — including
    HAUs the token cascade never reached."""
    scheme = MSSrc(checkpoint_times=[1.0], enable_recovery=True)
    env, rt, _ = deploy(make_chain_graph, scheme, source_count=400)
    # src commits ~1.009 and agg's write runs ~1.010-1.022 (seed 7):
    # killing agg at 1.012 interrupts the round mid-cascade
    kill_at(env, rt, 1.012, ["agg"])
    env.run(until=20.0)
    log = scheme.checkpoint_logs()[0]
    assert log.round_id == 1 and not log.complete
    incomplete = log.incomplete_haus()
    assert "agg" in incomplete
    # mid and sink never saw a token: only expected_haus can report them
    assert "mid" in incomplete and "sink" in incomplete
    assert "src" not in incomplete  # src committed before the failure
    assert set(log.expected_haus) == set(rt.app.graph.haus)
    # the profiler shows the same truncation from the trace alone
    wave = build_timeline(env.trace).round(1)
    assert not wave.complete
    assert "agg" in wave.incomplete_haus()
    assert compute_critical_path(env.trace, 1) is None


# -- chrome trace export --------------------------------------------------------


def run_chain_trace(seed=7):
    scheme = MSSrcAP(checkpoint_times=[1.0, 4.0], enable_recovery=True)
    env, rt, _ = deploy(make_chain_graph, scheme, seed=seed, source_count=400)
    kill_at(env, rt, 6.0, ["agg"])
    env.run(until=25.0)
    return env.trace


def test_chrome_trace_is_valid_trace_event_json():
    trace = to_chrome_trace(run_chain_trace())
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert events
    pids = set()
    for e in events:
        assert e["ph"] in ("X", "i", "M")
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        pids.add(e["pid"])
        if e["ph"] == "X":
            assert isinstance(e["ts"], int) and e["ts"] >= 0
            assert isinstance(e["dur"], int) and e["dur"] >= 0
        elif e["ph"] == "i":
            assert e["s"] == "g"
    # every pid is named via metadata
    named = {
        e["pid"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert named == pids
    # per-HAU checkpoint phases and critical-path hops are present
    cats = {e.get("cat") for e in events if e["ph"] == "X"}
    assert {"round", "checkpoint", "critical-path", "recovery"} <= cats


def test_chrome_trace_byte_identical_across_same_seed_runs(tmp_path):
    a = dumps_chrome_trace(to_chrome_trace(run_chain_trace()))
    b = dumps_chrome_trace(to_chrome_trace(run_chain_trace()))
    assert a == b
    assert a.encode("utf-8") == b.encode("utf-8")
    # and the file writer emits exactly that payload
    path = tmp_path / "run.perfetto.json"
    n = write_chrome_trace(run_chain_trace(), str(path))
    assert n > 0
    assert path.read_text(encoding="utf-8") == a
    json.loads(a)  # parses cleanly
