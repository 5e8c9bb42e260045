"""Tests for the scenario DSL (repro.scenarios): schema validation with
actionable errors, document → cell compilation (including cache-key
stability), the degradation failure kinds end-to-end, the checked-in
example library against its digest goldens, and the seeded campaign's
byte-determinism contract."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
import yaml

from repro.apps import synth
from repro.failures.injector import FailurePlan, PlannedFailure
from repro.harness.digest import result_digest
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.sweep import cell_key, run_cells
from repro.scenarios import (
    ScenarioValidationError,
    check_expectations,
    compile_scenario,
    fuzz_documents,
    load_path,
    load_text,
    scenario_paths,
    validate,
)
from repro.scenarios.campaign import main as campaign_main
from repro.scenarios import goldens as goldens_mod
from repro.scenarios.goldens import (
    golden_status,
    load_goldens,
    pin_files,
    pinned_cells,
    write_goldens,
)
from repro.scenarios.loader import ScenarioParseError
from repro.simulation.core import SimulationError

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples" / "scenarios"


def minimal_doc(**overrides):
    doc = {
        "id": "unit-minimal",
        "version": 1,
        "app": {"name": "tmi", "params": {"n_minutes": 0.25}},
        "scheme": "ms-src+ap",
    }
    doc.update(overrides)
    return doc


# A tiny synthetic scenario that simulates in well under a second.
def tiny_synth_doc(**overrides):
    doc = {
        "id": "unit-tiny-synth",
        "version": 1,
        "app": {
            "name": "synth",
            "params": {
                "topology": {
                    "stages": [
                        {"name": "s", "kind": "source", "replicas": 2, "interval": 0.5},
                        {"name": "m", "kind": "map", "replicas": 2, "state_window": 8},
                        {"name": "k", "kind": "sink", "replicas": 1},
                    ],
                    "edges": [
                        {"src": "s", "dst": "m", "routing": "hash", "pairing": "all"},
                        {"src": "m", "dst": "k"},
                    ],
                }
            },
        },
        "scheme": "ms-src",
        "cluster": {"workers": 4, "spares": 2, "racks": 2},
        "run": {"window": 8.0, "warmup": 2.0, "n_checkpoints": 1, "recovery": False},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# schema validation: every error is path-scoped and actionable
# ---------------------------------------------------------------------------


def test_minimal_doc_is_valid():
    assert validate(minimal_doc()) == []


def test_missing_required_fields_all_reported():
    errors = validate({})
    paths = {e.path for e in errors}
    assert {"id", "version", "app", "scheme"} <= paths


def test_unknown_field_names_the_allowed_set():
    errors = validate(minimal_doc(retries=3))
    [err] = errors
    assert err.path == "retries"
    assert "allowed:" in err.message and "failures" in err.message


def test_bad_failure_rows_are_path_scoped():
    doc = minimal_doc(failures=[
        {"at": 5.0, "kind": "meteor", "target": "w0"},
        {"at": -1.0, "kind": "node", "target": "w99"},
        {"at": 5.0, "kind": "node", "target": "w0", "duration": 4.0},
        {"at": float("nan"), "kind": "node", "target": "w0"},  # fired at t = 0
        {"at": 5.0, "kind": "straggler", "target": "w0",
         "duration": float("nan"), "factor": float("nan")},
    ])
    errors = {e.path: e.message for e in validate(doc)}
    assert "choose from node, rack, partition, straggler" in errors["failures[0].kind"]
    assert "failures[1].at" in errors
    assert "w0..w7" in errors["failures[1].target"]  # names the valid range
    assert "permanent kill" in errors["failures[2].duration"]
    assert "finite" in errors["failures[3].at"]
    assert "finite" in errors["failures[4].duration"] and "finite" in errors["failures[4].factor"]


@pytest.mark.parametrize(
    "key, value",
    [("window", v) for v in (".nan", ".inf", "0.0", "-3.0")]
    + [("warmup", v) for v in (".nan", ".inf", "-3.0")],
)
def test_run_window_and_warmup_must_be_finite_and_positive(key, value):
    """A window must be finite and > 0; a warmup finite and >= 0 (see
    :func:`test_run_warmup_may_be_zero`)."""
    doc = minimal_doc(**load_text(f"run: {{{key}: {value}}}\n"))
    assert [e.path for e in validate(doc)] == [f"run.{key}"]


def test_run_warmup_may_be_zero():
    """``ExperimentConfig(warmup=0.0)`` is a valid run (the 4k-HAU chain
    benchmark measures from t = 0), so a scenario may ask for it."""
    doc = minimal_doc(**load_text("run: {window: 8.0, warmup: 0}\n"))
    assert validate(doc) == []
    assert compile_scenario(doc).spec.config.warmup == 0.0


def test_rack_targets_checked_against_cluster_shape():
    doc = minimal_doc(
        cluster={"workers": 4, "spares": 2, "racks": 3},
        failures=[{"at": 5.0, "kind": "partition", "target": "rack3"}],
    )
    [err] = validate(doc)
    assert err.path == "failures[0].target"
    assert "rack0..rack2" in err.message


def test_oracle_scheme_rejected_with_pointer():
    [err] = validate(minimal_doc(scheme="oracle"))
    assert err.path == "scheme"
    assert "oracle" in err.message and "harness" in err.message


def test_bad_synth_topology_reported_at_schema_time():
    doc = tiny_synth_doc()
    doc["app"]["params"]["topology"]["edges"].append({"src": "k", "dst": "nope"})
    errors = validate(doc)
    assert errors
    assert all(e.path == "app.params.topology" for e in errors)


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("source", "count", -1),
        ("source", "count", 2.5),
        ("source", "interval", -0.5),
        ("source", "interval", 0),
        ("source", "interval", float("nan")),
        ("source", "interval", float("inf")),
        ("source", "interval", "0.5"),
        ("source", "keyspace", 0),
        ("source", "burst_len", 0),
        ("source", "burst_factor", 0),
        ("source", "size", -10),
        ("source", "size", 1.5),
        ("map", "cost_per_byte", -1e-9),
        ("map", "cost_per_byte", float("nan")),
        ("map", "size", -1),
    ],
)
def test_synth_stage_fields_are_checked_at_build_time(kind, field, value):
    """A bad number fails the build naming its field, instead of running
    with every tuple at t = 0 or failing mid-run inside a source."""
    doc = tiny_synth_doc()
    topology = doc["app"]["params"]["topology"]
    stage = next(s for s in topology["stages"] if s["kind"] == kind)
    stage[field] = value
    with pytest.raises(synth.TopologyError, match=rf"\.{field} must be "):
        synth.build(seed=1, topology=topology)
    assert [e.path for e in validate(doc)] == ["app.params.topology"]


def test_check_raises_with_every_error():
    with pytest.raises(ScenarioValidationError) as exc_info:
        compile_scenario({"id": "Bad Slug!", "version": 2}, source="unit.yaml")
    message = str(exc_info.value)
    assert "unit.yaml" in message
    assert "id:" in message and "version:" in message


# ---------------------------------------------------------------------------
# loader
# ---------------------------------------------------------------------------


def test_load_text_yaml_and_parse_error():
    doc = load_text("id: x\nversion: 1\n")
    assert doc == {"id": "x", "version": 1}
    with pytest.raises(ScenarioParseError, match=r"^bad\.yaml: not valid YAML/JSON"):
        load_text("id: [unclosed", source="bad.yaml")


def test_malformed_file_error_names_the_file(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("id: x\nfailures: [{at: 1\n", encoding="utf-8")
    with pytest.raises(ScenarioParseError, match=re.escape(str(p))):
        load_path(p)


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.yaml")), ids=lambda p: p.stem)
def test_example_loads_as_the_pure_python_parser_reads_it(path):
    reference = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
    assert load_path(path) == reference


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_load_text_parses_through_libyaml(monkeypatch):
    constructed = []
    real_init = yaml.SafeLoader.__init__

    def recording_init(self, stream):
        constructed.append(stream)
        real_init(self, stream)

    monkeypatch.setattr(yaml.SafeLoader, "__init__", recording_init)
    assert load_text("id: x\nversion: 1\n") == {"id": "x", "version": 1}
    for path in sorted(EXAMPLES.glob("*.yaml")):
        load_path(path)
    assert constructed == [], "a pure-Python SafeLoader parsed a scenario"


def test_load_path_json(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(minimal_doc()), encoding="utf-8")
    assert load_path(p)["id"] == "unit-minimal"
    p.write_text("{broken", encoding="utf-8")
    with pytest.raises(ScenarioParseError):
        load_path(p)


def test_scenario_paths_excludes_goldens(tmp_path):
    (tmp_path / "a.yaml").write_text("id: a\n", encoding="utf-8")
    (tmp_path / "GOLDENS.json").write_text("{}", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("", encoding="utf-8")
    assert [p.name for p in scenario_paths(tmp_path)] == ["a.yaml"]


# ---------------------------------------------------------------------------
# compiler: defaults, failure lowering, cache-key stability
# ---------------------------------------------------------------------------


def test_compile_applies_harness_defaults():
    spec = compile_scenario(minimal_doc()).spec
    cfg = spec.config
    assert (cfg.workers, cfg.spares, cfg.racks) == (8, 12, 2)
    assert (cfg.window, cfg.warmup, cfg.n_checkpoints) == (40.0, 10.0, 2)
    assert cfg.seed == 1 and cfg.enable_recovery is False
    assert spec.failure_trace is None


def test_compile_lowers_failures_with_kind_defaults():
    doc = minimal_doc(failures=[
        {"at": 20.0, "kind": "partition", "target": "rack1"},
        {"at": 15.0, "kind": "node", "target": "w3"},
    ])
    trace = compile_scenario(doc).spec.failure_trace
    assert [e.kind for e in trace] == ["node", "partition"]  # sorted by time
    node, partition = trace
    assert node.duration == 0.0 and node.factor == 1.0
    assert partition.duration == 6.0 and partition.factor == 200.0
    assert all(e.cause == "scenario" for e in trace)


def test_failure_listing_order_never_changes_the_cell_key():
    rows = [
        {"at": 20.0, "kind": "straggler", "target": "w1", "duration": 4.0, "factor": 5.0},
        {"at": 20.0, "kind": "node", "target": "w0"},
    ]
    a = compile_scenario(minimal_doc(failures=rows)).spec
    b = compile_scenario(minimal_doc(failures=list(reversed(rows)))).spec
    assert a == b
    assert cell_key(a) == cell_key(b)


def test_check_expectations_reports_each_miss():
    doc = minimal_doc(expect={"min_rounds": 2, "recovers": True, "min_throughput": 500})
    payload = {"rounds_completed": 1, "recovery": None, "throughput": 400}
    problems = check_expectations(doc, payload)
    assert len(problems) == 3
    assert any("checkpoint round" in p for p in problems)
    assert any("did not recover" in p for p in problems)
    assert any("throughput" in p for p in problems)
    good = {"rounds_completed": 2, "recovery": {"total": 1.0}, "throughput": 600}
    assert check_expectations(doc, good) == []


# ---------------------------------------------------------------------------
# degradation kinds end-to-end: perturb the run, then heal cleanly
# ---------------------------------------------------------------------------


def test_partition_and_straggler_perturb_then_restore():
    cfg = ExperimentConfig(
        app="synth", scheme="none", n_checkpoints=0, window=8.0, warmup=2.0,
        workers=4, spares=2, racks=2, seed=3,
        app_params=tiny_synth_doc()["app"]["params"],
    )
    clean = run_experiment(cfg, trace=True)
    plan = FailurePlan(events=[
        PlannedFailure(at=4.0, kind="partition", target="rack1",
                       duration=2.0, factor=100.0),
        PlannedFailure(at=5.0, kind="straggler", target="w1",
                       duration=2.0, factor=10.0),
    ])
    degraded = run_experiment(cfg, failure_plan=plan, trace=True)
    assert result_digest(degraded) != result_digest(clean)
    kinds = [e.kind for e in degraded.tracer.events if e.kind.startswith("failure.")]
    assert kinds.count("failure.inject") == 2
    assert kinds.count("failure.restore") == 2
    # after both restores the hardware is back at clean-run speeds
    node_clean = clean.runtime.dc.node("w1")
    node_degraded = degraded.runtime.dc.node("w1")
    assert node_degraded.nic_out.bandwidth == node_clean.nic_out.bandwidth
    assert node_degraded.disk.bandwidth == node_clean.disk.bandwidth


# ---------------------------------------------------------------------------
# example library: validates, and digests reproduce the committed goldens
# ---------------------------------------------------------------------------


def test_every_example_scenario_validates():
    paths = scenario_paths(EXAMPLES)
    assert len(paths) >= 6
    for path in paths:
        assert validate(load_path(path)) == [], f"{path} failed validation"


def test_every_example_scenario_has_a_golden():
    """Every pinned name — the six canonical cases, then the examples —
    is pinned by exactly one file, and each file pins nothing else.
    baseline-steady and tmi/ms-src+ap@2 compile to one cell, so thirteen
    names pin twelve digests."""
    cells = pinned_cells()
    ids = {load_path(p)["id"] for p in scenario_paths(EXAMPLES)}
    assert len(cells) == 13 and list(cells)[6:] == sorted(ids)
    files = pin_files(list(cells))
    assert [path.name for path in files] == ["DIGEST_baseline.json", "GOLDENS.json"]
    pins = {}
    for path, names in files.items():
        doc = load_goldens(path)
        assert set(doc) == {"environment", "digests"}
        assert sorted(doc["digests"]) == sorted(names)
        pins.update(doc["digests"])
    assert len(set(pins.values())) == 12
    assert pins["baseline-steady"] == pins["tmi/ms-src+ap@2"]


def test_example_round_trip_reproduces_golden(tmp_path):
    goldens = load_goldens()
    scn = compile_scenario(load_path(EXAMPLES / "single-node-kill.yaml"))
    [payload] = run_cells([scn.spec], jobs=1, cache_dir=tmp_path / "cache")
    status = golden_status(goldens, scn.scenario_id, payload["digest"])
    if status == "env-skip":
        pytest.skip("goldens recorded under a different python/numpy build")
    assert status == "ok"
    assert payload["recovery"] is not None  # the scenario's expectation holds


def test_goldens_write_and_status_transitions(tmp_path):
    path = tmp_path / "GOLDENS.json"
    write_goldens({"a": "deadbeef"}, path)
    goldens = load_goldens(path)
    assert golden_status(goldens, "a", "deadbeef") == "ok"
    assert golden_status(goldens, "a", "cafe") == "MISMATCH"
    assert golden_status(goldens, "b", "cafe") == "new"
    assert golden_status(load_goldens(tmp_path / "missing.json"), "a", "x") == "env-skip"


def test_goldens_cli_says_when_it_did_not_check(tmp_path, monkeypatch, capsys):
    """0 = every golden compared and equal, 1 = one out of date, 2 = the
    goldens file is missing or unparseable, 77 = the goldens were
    recorded on another build, so nothing was compared."""
    from repro.harness import digest as digest_mod
    from repro.scenarios import cli

    examples = tmp_path / "scenarios"
    examples.mkdir()
    (examples / "tiny.json").write_text(json.dumps(tiny_synth_doc()), encoding="utf-8")
    monkeypatch.setattr(goldens_mod, "default_examples_dir", lambda: examples)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    goldens = examples / "GOLDENS.json"
    args = ["goldens", "--cases", "unit-tiny-synth"]
    assert cli.main(args) == 2
    assert f"pin file {goldens}" in capsys.readouterr().err
    assert cli.main(args + ["--write"]) == 0
    assert cli.main(args) == 0
    write_goldens({"unit-tiny-synth": "cafe"}, goldens)
    assert cli.main(args) == 1
    goldens.write_text("{broken", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(args) == 2
    assert f"pin file {goldens}" in capsys.readouterr().err
    goldens.write_text("{}", encoding="utf-8")  # no digests: not an env-skip
    assert cli.main(args) == 2
    write_goldens({"unit-tiny-synth": "cafe"}, goldens)
    assert cli.main(["goldens", "--cases", "unit-tiny-synth,nope"]) == 2
    capsys.readouterr()
    foreign = dict(digest_mod.environment_fingerprint(), numpy="0.0.0")
    monkeypatch.setattr(digest_mod, "environment_fingerprint", lambda: foreign)
    assert cli.main(args) == digest_mod.EXIT_SKIPPED == 77
    out = capsys.readouterr().out
    assert "env-skip: unit-tiny-synth" in out
    assert "goldens check skipped: environment mismatch" in out


# ---------------------------------------------------------------------------
# fuzzer: valid by construction, deterministic in the seed
# ---------------------------------------------------------------------------


def test_fuzz_documents_deterministic_and_valid():
    a = fuzz_documents(seed=42, count=8)
    b = fuzz_documents(seed=42, count=8)
    assert a == b
    assert [d["id"] for d in a] == [f"fuzz-42-{i:03d}" for i in range(8)]
    for doc in a:
        assert validate(doc) == []
        compile_scenario(doc)  # lowering must succeed too
    assert fuzz_documents(seed=43, count=8) != a


def test_fuzzed_kills_always_enable_recovery():
    for doc in fuzz_documents(seed=9, count=12):
        kills = any(f["kind"] in ("node", "rack") for f in doc.get("failures", []))
        if kills:
            assert doc["run"]["recovery"] is True


# ---------------------------------------------------------------------------
# campaign runner: byte-determinism and gating
# ---------------------------------------------------------------------------


def test_campaign_same_seed_byte_deterministic(tmp_path, capsys):
    args = ["--seed", "11", "--count", "2", "--skip-examples",
            "--cache-dir", str(tmp_path / "cache")]
    assert campaign_main(args + ["--output", str(tmp_path / "r1.json")]) == 0
    out1 = capsys.readouterr().out
    assert campaign_main(args + ["--output", str(tmp_path / "r2.json")]) == 0
    out2 = capsys.readouterr().out
    r1 = (tmp_path / "r1.json").read_bytes()
    r2 = (tmp_path / "r2.json").read_bytes()
    assert r1 == r2  # cold vs warm cache: reports are byte-identical
    assert out1 == out2  # stdout too (cache stats go to stderr)
    report = json.loads(r1)
    assert report["summary"]["total"] == 2
    assert {r["source"] for r in report["scenarios"]} == {"fuzz"}
    assert report["report_version"] == 3 and "analytics" not in report
    assert all("error" not in r for r in report["scenarios"])


def test_campaign_expectation_failure_gates(tmp_path, capsys):
    doc = tiny_synth_doc(expect={"min_throughput": 10**9})
    examples = tmp_path / "scenarios"
    examples.mkdir()
    (examples / "tiny.json").write_text(json.dumps(doc), encoding="utf-8")
    args = ["--seed", "1", "--count", "0",
            "--examples-dir", str(examples),
            "--goldens", str(examples / "GOLDENS.json"),
            "--cache-dir", str(tmp_path / "cache")]
    assert campaign_main(args) == 1
    out = capsys.readouterr().out
    assert "expect: expected throughput >= 1000000000" in out
    # the same failure is warn-only under --warn-only (the nightly mode)
    assert campaign_main(args + ["--warn-only"]) == 0


def test_campaign_cell_that_raises_is_a_failed_row(tmp_path, capsys):
    """Killing the shared-storage node (a target the schema documents)
    fails a writer mid-run; the kernel raises out of that cell — which is
    one FAIL row with the message, not the end of the campaign."""
    examples = tmp_path / "scenarios"
    examples.mkdir()
    (examples / "a-tiny.json").write_text(json.dumps(tiny_synth_doc()), encoding="utf-8")
    doomed = (EXAMPLES / "single-node-kill.yaml").read_text(encoding="utf-8")
    assert "target: w3" in doomed
    (examples / "b-storage-kill.yaml").write_text(
        doomed.replace("target: w3", "target: storage"), encoding="utf-8")
    cache = tmp_path / "cache"
    args = ["--count", "0", "--examples-dir", str(examples),
            "--goldens", str(examples / "GOLDENS.json"), "--cache-dir", str(cache)]
    assert campaign_main(args + ["--output", str(tmp_path / "r1.json")]) == 1
    out = capsys.readouterr().out
    assert "error: SimulationError: process " in out and "1/2 passed" in out
    ok, failed = json.loads((tmp_path / "r1.json").read_text())["scenarios"]
    assert (ok["id"], ok["status"]) == ("unit-tiny-synth", "pass") and "error" not in ok
    assert (failed["id"], failed["status"]) == ("single-node-kill", "FAIL")
    assert failed["error"].startswith("SimulationError: process '")
    assert " failed at t=30." in failed["error"]
    assert failed["error"].endswith("StorageError('storage node down')")
    assert failed["digest"] is None and failed["expect_failures"] == []
    # only the cell that ran is cached; the failed one runs (and fails) again,
    # to the same bytes
    assert len(sorted(cache.glob("*.json"))) == 1
    assert campaign_main(args + ["--output", str(tmp_path / "r2.json")]) == 1
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert len(sorted(cache.glob("*.json"))) == 1
    # a figure with a hole in it is wrong: run_cells' default still raises
    scn = compile_scenario(load_path(examples / "b-storage-kill.yaml"))
    with pytest.raises(SimulationError, match="storage node down"):
        run_cells([scn.spec], jobs=1, use_cache=False)


def test_campaign_rejects_invalid_checked_in_scenario(tmp_path, capsys):
    examples = tmp_path / "scenarios"
    examples.mkdir()
    (examples / "bad.yaml").write_text("id: Bad!\n", encoding="utf-8")
    code = campaign_main(["--count", "0", "--examples-dir", str(examples),
                          "--cache-dir", str(tmp_path / "cache")])
    assert code == 2
    assert "schema error" in capsys.readouterr().err
