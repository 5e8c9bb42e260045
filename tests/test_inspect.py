"""Tests for repro.inspect: RunBundle format, diff engine, explainer, CLI.

The four contracts pinned here (and referenced from the package
docstrings):

* **byte-determinism** — two same-seed runs produce byte-identical
  bundle directories, and every CLI rendering of the same inputs is
  byte-identical across invocations;
* **antisymmetry** — ``diff(b, a)`` is the exact sign-flipped mirror of
  ``diff(a, b)``;
* **attribution** — on a hand-built trace where one HAU's one phase is
  made slower, the diff's top mover names exactly that HAU and that
  phase span;
* **one reader** — ``show`` renders a bundle, a trace (exactly the
  run's ``trace_report()``) or a telemetry snapshot, and nothing else.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.failures.injector import FailurePlan, PlannedFailure
from repro.harness import ExperimentConfig, run_experiment
from repro.inspect import (
    build_bundle,
    diff_bundles,
    explain_diff,
    read_bundle,
    render_diff_table,
    top_movers,
    write_bundle,
)
from repro.inspect.bundle import BundleError
from repro.inspect.cli import main
from repro.observability import build_timeline, read_jsonl, write_chrome_trace
from repro.vocabulary import PHASES


def small_config(**kwargs):
    base = dict(
        app="tmi", scheme="ms-src+ap", n_checkpoints=2, window=60.0, warmup=20.0,
        workers=6, spares=8, racks=2, seed=3, app_params={"n_minutes": 0.25},
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def bundle_bytes(directory):
    """{filename: bytes} for every file in a bundle directory."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# hand-verified synthetic payloads (the attribution ground truth)
# ---------------------------------------------------------------------------

def synthetic_payload(straggler_extra: float = 0.0) -> dict:
    """A minimal sweep-cell payload with known phase-span arithmetic.

    Two HAUs (``W0``, ``W1``) over one checkpoint round.  With
    ``straggler_extra > 0``, HAU ``W1`` spends that many extra seconds in
    ``disk-io`` (and the critical path + straggler list reflect it) —
    the injected-straggler scenario in miniature, with every number
    chosen by hand so the expected diff is computable on paper.
    """
    w1_disk = 1.0 + straggler_extra
    payload = {
        "config": {
            "app": "tmi", "scheme": "ms-src+ap", "n_checkpoints": 1,
            "window": 60.0, "warmup": 20.0, "seed": 3,
        },
        "digest": f"digest-{straggler_extra}",
        "throughput": 1000.0 - 10.0 * straggler_extra,
        "latency": 20.0 + straggler_extra,
        "latency_percentiles": {"p50": 18.0, "p95": 30.0, "p99": 31.0 + straggler_extra},
        "rounds_completed": 1,
        "phase_spans": {
            "totals": {
                "token-wait": 2.0,
                "safepoint-wait": 1.0,
                "snapshot": 2.0,
                "disk-io": 2.0 + straggler_extra,
            },
            "per_hau": {
                "W0": {"token-wait": 1.0, "safepoint-wait": 0.5,
                       "snapshot": 1.0, "disk-io": 1.0},
                "W1": {"token-wait": 1.0, "safepoint-wait": 0.5,
                       "snapshot": 1.0, "disk-io": w1_disk},
            },
        },
        "critical_path": {
            "rounds": {"1": 3.5 + straggler_extra},
            "max_seconds": 3.5 + straggler_extra,
            "mean_seconds": 3.5 + straggler_extra,
            "gating": {"1": "W1" if straggler_extra else "W0"},
            "hops": {
                "1": [
                    {"kind": "token-wait", "subject": "W1", "seconds": 1.0},
                    {"kind": "disk-io", "subject": "W1", "seconds": w1_disk},
                    {"kind": "barrier", "subject": "coordinator", "seconds": 1.5},
                ]
            },
        },
        "stragglers": (
            [{"round": 1, "hau": "W1", "seconds": w1_disk, "ratio": 3.0}]
            if straggler_extra
            else []
        ),
    }
    return payload


# ---------------------------------------------------------------------------
# bundle format: round-trip, content addressing, byte-determinism
# ---------------------------------------------------------------------------

def test_bundle_round_trip_and_content_address(tmp_path):
    bundle = build_bundle(synthetic_payload())
    directory = write_bundle(bundle, tmp_path)
    # content-addressed path: the dir name is the bundle id prefix
    assert directory.name == bundle["manifest"]["bundle_id"][:16]
    loaded = read_bundle(directory)
    assert loaded["manifest"] == bundle["manifest"]
    assert loaded["files"] == bundle["files"]
    # rewriting identical content lands on the same path, unchanged
    before = bundle_bytes(directory)
    assert write_bundle(bundle, tmp_path) == directory
    assert bundle_bytes(directory) == before


def test_bundle_named_write_pins_path(tmp_path):
    bundle = build_bundle(synthetic_payload())
    directory = write_bundle(bundle, tmp_path, name="BUNDLE_baseline")
    assert directory == tmp_path / "BUNDLE_baseline"
    assert read_bundle(directory)["manifest"]["bundle_id"] == (
        bundle["manifest"]["bundle_id"]
    )


def test_bundle_verify_rejects_tampering(tmp_path):
    directory = write_bundle(build_bundle(synthetic_payload()), tmp_path)
    metrics = directory / "metrics.json"
    data = json.loads(metrics.read_text())
    data["throughput"] = 999999
    metrics.write_text(json.dumps(data))
    with pytest.raises(BundleError, match="does not match"):
        read_bundle(directory)
    # verify=False loads it anyway (for forensics on corrupt uploads)
    assert read_bundle(directory, verify=False)["files"]["metrics.json"][
        "throughput"
    ] == 999999


def test_bundle_rejects_non_bundle_dir(tmp_path):
    with pytest.raises(BundleError, match="not a bundle"):
        read_bundle(tmp_path)


def test_same_seed_experiments_write_byte_identical_bundles(tmp_path):
    """The headline determinism contract: same seed -> identical bytes."""
    dirs = []
    for sub in ("one", "two"):
        res = run_experiment(small_config(), trace=True)
        dirs.append(res.write_run_bundle(tmp_path / sub))
    bytes_a, bytes_b = bundle_bytes(dirs[0]), bundle_bytes(dirs[1])
    assert set(bytes_a) == set(bytes_b)
    assert bytes_a == bytes_b  # byte-identical, file by file
    # ... and therefore the same content address
    assert dirs[0].name == dirs[1].name
    # the self-diff agrees: digests match -> identical
    diff = diff_bundles(read_bundle(dirs[0]), read_bundle(dirs[1]))
    assert diff["identical"] is True
    assert explain_diff(diff) == [
        "bundles are identical (determinism digests and alert sections match)"
    ]


# ---------------------------------------------------------------------------
# diff engine: antisymmetry
# ---------------------------------------------------------------------------

def mirror_entry(entry):
    return {
        "a": entry["b"],
        "b": entry["a"],
        "delta": None if entry["delta"] is None else -entry["delta"],
    }


def test_diff_bundles_antisymmetry():
    a = build_bundle(synthetic_payload(0.0))
    b = build_bundle(synthetic_payload(5.0))
    fwd = diff_bundles(a, b)
    rev = diff_bundles(b, a)
    assert rev["a"] == fwd["b"] and rev["b"] == fwd["a"]
    assert rev["identical"] == fwd["identical"]
    for table in ("metrics", "checkpoint", "phases", "haus", "hops", "hop_subjects"):
        assert rev[table] == {
            name: mirror_entry(entry) for name, entry in fwd[table].items()
        }, table
    assert rev["stragglers"]["appeared"] == fwd["stragglers"]["disappeared"]
    assert rev["stragglers"]["disappeared"] == fwd["stragglers"]["appeared"]
    # rankings are sign-insensitive: same (dimension, name) order
    assert [(m["dimension"], m["name"]) for m in rev["top_movers"]] == [
        (m["dimension"], m["name"]) for m in fwd["top_movers"]
    ]
    assert [m["delta"] for m in rev["top_movers"]] == [
        -m["delta"] for m in fwd["top_movers"]
    ]


# ---------------------------------------------------------------------------
# attribution: the injected-straggler acceptance scenario
# ---------------------------------------------------------------------------

def test_straggler_delta_attributed_to_correct_phase_and_hau():
    """Hand-verified ground truth: B is A plus 5.0s of disk-io on W1.

    Expected attribution, computable on paper from synthetic_payload():
    every moved dimension (phase ``disk-io``, hau ``W1``, hop kind
    ``disk-io``, hop subject ``W1``) carries exactly +5.0s, and nothing
    else moves at all.
    """
    extra = 5.0
    diff = diff_bundles(
        build_bundle(synthetic_payload(0.0)),
        build_bundle(synthetic_payload(extra)),
    )
    assert diff["identical"] is False and diff["same_workload"] is True

    # phase attribution: disk-io grew by exactly the injected seconds ...
    assert diff["phases"]["disk-io"]["delta"] == pytest.approx(extra)
    # ... and the other three phases did not move
    for phase in PHASES:
        if phase != "disk-io":
            assert diff["phases"][phase]["delta"] == 0.0

    # HAU attribution: W1 absorbed it all, W0 is untouched
    assert diff["haus"]["W1"]["delta"] == pytest.approx(extra)
    assert diff["haus"]["W0"]["delta"] == 0.0

    # critical path: the round got slower by the same amount, the hop
    # breakdown blames the disk-io hop on W1, and gating flipped to W1
    assert diff["checkpoint"]["critical_path_max"]["delta"] == pytest.approx(extra)
    assert diff["hops"]["disk-io"]["delta"] == pytest.approx(extra)
    assert diff["hops"]["barrier"]["delta"] == 0.0
    assert diff["hop_subjects"]["W1"]["delta"] == pytest.approx(extra)

    # the straggler itself is flagged as appeared
    assert diff["stragglers"]["appeared"] == ["1:W1"]
    assert diff["stragglers"]["disappeared"] == []

    # every top mover is one of the four +5.0s views of the same event
    assert diff["top_movers"], "movement must produce movers"
    expected = {("phase", "disk-io"), ("hau", "W1"),
                ("hop", "disk-io"), ("hop-subject", "W1")}
    assert {(m["dimension"], m["name"]) for m in diff["top_movers"]} == expected
    for mover in diff["top_movers"]:
        assert mover["delta"] == pytest.approx(extra)

    # and the explainer tells the same story in prose
    lines = explain_diff(diff)
    text = "\n".join(lines)
    assert "attribution (delta = candidate - baseline):" in text
    assert "hau W1" in text and "+5" in text
    assert "stragglers appeared: 1:W1" in text
    assert "latency: 20 -> 25 (+5, +25.0%, worse)" in text


def test_top_movers_limit_and_determinism():
    diff = diff_bundles(
        build_bundle(synthetic_payload(0.0)), build_bundle(synthetic_payload(5.0))
    )
    assert top_movers(diff, limit=2) == diff["top_movers"][:2]
    # ranking is a pure function: recomputing yields identical rows
    assert top_movers(diff) == top_movers(diff)


# ---------------------------------------------------------------------------
# explainer rendering
# ---------------------------------------------------------------------------

def test_explain_diff_no_movement_line():
    a = build_bundle(synthetic_payload(0.0))
    b = copy.deepcopy(a)
    b["manifest"] = dict(b["manifest"], digest="different")  # not identical
    lines = explain_diff(diff_bundles(a, b))
    assert lines == ["no measurable difference between the two sides"]


def test_explain_diff_flags_workload_mismatch():
    a = synthetic_payload(0.0)
    b = synthetic_payload(0.0)
    b["config"]["scheme"] = "baseline"
    b["digest"] = "other"
    lines = explain_diff(diff_bundles(build_bundle(a), build_bundle(b)))
    assert any("apples to oranges" in line for line in lines)


def test_explain_diff_rejects_unknown_kind():
    with pytest.raises(ValueError, match="not a diff"):
        explain_diff({"kind": "mystery"})


def test_render_diff_table_deterministic():
    a = build_bundle(synthetic_payload(0.0))
    b = build_bundle(synthetic_payload(5.0))
    one = render_diff_table(diff_bundles(a, b))
    two = render_diff_table(diff_bundles(a, b))
    assert one == two
    assert "top movers" in one and "phase-span totals" in one
    assert "stragglers appeared: 1:W1" in one


# ---------------------------------------------------------------------------
# CLI: show / diff / explain
# ---------------------------------------------------------------------------

def write_pair(tmp_path):
    da = write_bundle(build_bundle(synthetic_payload(0.0)), tmp_path, name="a")
    db = write_bundle(build_bundle(synthetic_payload(5.0)), tmp_path, name="b")
    return da, db


def test_cli_show_and_byte_determinism(tmp_path, capsys):
    da, _ = write_pair(tmp_path)
    assert main(["show", str(da)]) == 0
    first = capsys.readouterr().out
    assert main(["show", str(da)]) == 0
    assert capsys.readouterr().out == first  # byte-deterministic
    assert "tmi/ms-src+ap" in first


def test_cli_diff_and_explain(tmp_path, capsys):
    da, db = write_pair(tmp_path)
    assert main(["diff", str(da), str(db)]) == 0
    out = capsys.readouterr().out
    assert "identical: no" in out and "top movers" in out
    assert main(["diff", str(da), str(db), "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["kind"] == "bundle-diff"
    assert main(["explain", str(da), str(db)]) == 0
    out = capsys.readouterr().out
    assert "attribution (delta = candidate - baseline):" in out


def test_cli_rejects_mixed_operands(tmp_path, capsys):
    """``diff`` / ``explain`` take two bundles: a report file is an error
    on either side (the figure record's comparer is check_regression.py)."""
    da, _ = write_pair(tmp_path)
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"cells": []}))
    for command in ("diff", "explain"):
        for operands in ([da, report], [report, da], [report, report]):
            assert main([command, *map(str, operands)]) == 2
            assert f"error: {report}: not a bundle directory" in capsys.readouterr().err


def test_cli_errors_on_missing_bundle(tmp_path, capsys):
    assert main(["show", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# show: one reader for a trace and a telemetry snapshot too
# ---------------------------------------------------------------------------

STRAGGLER_NODE = "w1"


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """A traced, telemetered run with both checkpoint rounds, a straggler
    planted on one node through the first round, and a node kill after
    the second; returns ``(result, trace path, snapshot path)``."""
    plan = FailurePlan([
        PlannedFailure(at=30.0, kind="straggler", target=STRAGGLER_NODE,
                       duration=20.0, factor=50.0),
    ])
    res = run_experiment(
        small_config(enable_recovery=True), trace=True, telemetry=True,
        failure_plan=plan, failure_at=70.0, failure_targets=["w5"],
    )
    root = tmp_path_factory.mktemp("show")
    res.write_trace(str(root / "run.trace.jsonl"))
    res.write_telemetry(str(root / "run.telemetry.json"))
    return res, str(root / "run.trace.jsonl"), str(root / "run.telemetry.json")


def test_show_trace_prints_exactly_trace_report(observed, capsys):
    res, trace, _ = observed
    assert main(["show", trace]) == 0
    out = capsys.readouterr().out
    assert out == res.trace_report() + "\n"
    for section in ("checkpoint rounds:", "recoveries (global rollback):",
                    "critical paths:", "stragglers:"):
        assert section in out
    # the planted straggler is reported: an HAU on the slowed node
    slowed = {e.subject for e in res.tracer.select(kind="hau.start")
              if e.get("node") == STRAGGLER_NODE}
    flagged = {(s["round"], s["hau"]) for s in res.trace_summary()["stragglers"]}
    assert {(1, hau) for hau in slowed} & flagged
    assert any(f"round 1: {hau} " in out for hau in slowed)


def test_show_trace_json_is_the_summary_and_paths_tile_each_round(observed, capsys):
    res, trace, _ = observed
    assert main(["show", trace, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.loads(json.dumps(res.trace_summary()))
    complete = [r["round_id"] for r in payload["rounds"] if r["status"] == "complete"]
    assert complete and [p["round"] for p in payload["critical_paths"]] == complete
    for p in payload["critical_paths"]:
        assert p["seconds"] == pytest.approx(
            sum(h["duration"] for h in p["hops"]), abs=1e-9
        )
    assert payload["stragglers"] and payload["recoveries"]


def test_show_trace_chrome_trace_is_write_chrome_trace(observed, tmp_path, capsys):
    res, trace, _ = observed
    out = tmp_path / "show.perfetto.json"
    assert main(["show", trace, "--chrome-trace", str(out)]) == 0
    assert capsys.readouterr().out == res.trace_report() + "\n"
    ref = tmp_path / "ref.perfetto.json"
    write_chrome_trace(build_timeline(read_jsonl(trace)), str(ref))
    assert out.read_bytes() == ref.read_bytes()
    live = tmp_path / "live.perfetto.json"
    res.write_chrome_trace(str(live))
    assert out.read_bytes() == live.read_bytes()


def test_show_snapshot_renders_counters_distributions_and_series(observed, tmp_path, capsys):
    res, _, snapshot = observed
    assert main(["show", snapshot]) == 0
    out = capsys.readouterr().out
    assert "telemetry snapshot: app=tmi  scheme=ms-src+ap  seed=3" in out
    for title in ("Counters and gauges", "Distributions", "Series: ms_hau_inbox_depth"):
        assert title in out
    assert main(["show", snapshot, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(res.telemetry_json())
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"meta": {}, "metrics": [], "series": {}}))
    assert main(["show", str(empty)]) == 0
    assert capsys.readouterr().out == "telemetry snapshot: empty\n"


def test_show_exits_two_on_what_it_cannot_read(observed, tmp_path, capsys):
    _, trace, snapshot = observed
    missing = tmp_path / "nope.jsonl"
    assert main(["show", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err
    for name, text in (("notes.txt", "hello\n"), ("report.json", '{"cells": []}\n'),
                       ("empty.jsonl", "")):
        path = tmp_path / name
        path.write_text(text)
        assert main(["show", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "not a bundle directory" in err
    da, _ = write_pair(tmp_path)
    for path in (da, snapshot):
        assert main(["show", str(path), "--chrome-trace", str(tmp_path / "x.json")]) == 2
        assert "--chrome-trace needs a trace" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_show_exits_two_on_a_trace_row_without_t(tmp_path, capsys):
    path = tmp_path / "bad.trace.jsonl"
    path.write_text(
        '{"data":{},"kind":"hau.start","seq":1,"subject":"a","t":0.0}\n'
        '{"data":{},"kind":"hau.start","seq":2,"subject":"b"}\n'
    )
    assert main(["show", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: trace row 2: missing field 't'\n"
    )
    # rows the writer cannot produce are refused too, each naming its row
    row = '{"data":%s,"kind":"hau.start","seq":%s,"subject":"a","t":%s}\n'
    first = row % ("{}", "1", "0.0")
    for second, why in (
        (row % ("{}", "2", "NaN"), "NaN is not valid JSON"),
        (row % ("{}", "2", "Infinity"), "Infinity is not valid JSON"),
        (row % ("{}", "2", "1e400"), "field 't' is not a finite number: inf"),
        (row % ("{}", "2", '"1.0"'), "field 't' is not a finite number: '1.0'"),
        (row % ('{"x":-Infinity}', "2", "1.0"), "-Infinity is not valid JSON"),
        (row % ("{}", "1.7", "1.0"), "field 'seq' is not an integer: 1.7"),
        (row % ("{}", "true", "1.0"), "field 'seq' is not an integer: True"),
        (row % ("{}", '"2"', "1.0"), "field 'seq' is not an integer: '2'"),
        (row % ("{}", "1", "1.0"), "seq 1 does not follow seq 1"),
    ):
        path.write_text(first + second)
        assert main(["show", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: trace row 2: {why}\n"
    # a file concatenated with itself is not two rounds of one run
    path.write_text((first + row % ("{}", "2", "1.0")) * 2)
    assert main(["show", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: trace row 3: seq 1 does not follow seq 2\n"
    )
