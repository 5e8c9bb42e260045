"""Parallel sweep runner + content-addressed result cache
(``repro.harness.sweep``): hit/miss accounting, invalidation by config
and by code version, merge ordering, and the stats/metrics plumbing.

Every test points the runner at a ``tmp_path`` cache so the repo-root
cache (and other test sessions) are never touched.
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro.harness.sweep as sweep
from repro.harness.experiment import ExperimentConfig
from repro.harness.sweep import (
    CellSpec,
    SweepStats,
    cached_oracle_times,
    cell_key,
    clear_cache,
    run_cells,
)
from repro.telemetry import MetricRegistry
from repro.telemetry.export import snapshot

SMALL = dict(window=20.0, warmup=5.0, workers=6, spares=8, racks=2, seed=3)


def small_config(scheme="ms-src", n=1, **over):
    kwargs = dict(SMALL)
    kwargs.update(over)
    return ExperimentConfig(
        app="tmi", scheme=scheme, n_checkpoints=n,
        app_params={"n_minutes": 0.25}, **kwargs,
    )


def specs_pair():
    return [
        CellSpec(config=small_config(scheme="baseline")),
        CellSpec(config=small_config(scheme="ms-src")),
    ]


def test_cold_then_warm_run_hits_100_percent(tmp_path):
    cold = SweepStats()
    first = run_cells(specs_pair(), jobs=1, cache_dir=tmp_path, stats=cold)
    assert (cold.cache_hits, cold.cache_misses, cold.executed) == (0, 2, 2)

    warm = SweepStats()
    second = run_cells(specs_pair(), jobs=1, cache_dir=tmp_path, stats=warm)
    assert (warm.cache_hits, warm.cache_misses, warm.executed) == (2, 0, 0)
    assert second == first, "cached payloads must be byte-identical to fresh ones"


def test_cache_files_are_canonical_json(tmp_path):
    run_cells(specs_pair()[:1], jobs=1, cache_dir=tmp_path)
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 1
    text = files[0].read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert "digest" in payload and "kernel" in payload


def test_config_change_misses(tmp_path):
    run_cells([CellSpec(config=small_config(seed=3))], jobs=1, cache_dir=tmp_path)
    stats = SweepStats()
    run_cells([CellSpec(config=small_config(seed=4))], jobs=1, cache_dir=tmp_path, stats=stats)
    assert stats.cache_misses == 1


def test_run_kwargs_are_part_of_the_key():
    base = CellSpec(config=small_config())
    with_failure = CellSpec(config=small_config(), failure_at=12.0)
    with_bins = CellSpec(config=small_config(), bins=(5.0, 20.0, 1.0))
    keys = {cell_key(base), cell_key(with_failure), cell_key(with_bins)}
    assert len(keys) == 3


def test_code_fingerprint_invalidates_cache(tmp_path, monkeypatch):
    run_cells(specs_pair()[:1], jobs=1, cache_dir=tmp_path)
    # simulate a source edit: the memoised code salt changes
    monkeypatch.setattr(sweep, "_CODE_FINGERPRINT", "0" * 64)
    stats = SweepStats()
    run_cells(specs_pair()[:1], jobs=1, cache_dir=tmp_path, stats=stats)
    assert stats.cache_misses == 1, "a code-version change must invalidate every entry"
    assert len(sorted(tmp_path.glob("*.json"))) == 2  # old entry + new entry


def pathlib_tree_digest(root):
    """The fingerprint's reference definition, written the pathlib way."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def test_code_fingerprint_equals_the_pathlib_reference(monkeypatch):
    # a walk that dropped, added or reordered a file would differ here
    monkeypatch.setattr(sweep, "_CODE_FINGERPRINT", None)
    package_root = Path(sweep.__file__).resolve().parents[1]
    assert sweep.code_fingerprint() == pathlib_tree_digest(package_root)


def test_tree_digest_orders_files_as_pathlib_does(tmp_path):
    # "a.py" < "a/b.py" as strings ('.' < '/') but not as paths, which
    # compare component by component; non-.py files are left out
    for rel in ("a.py", "a/b.py", "a-b.py", "a/c/d.py", "ab.py", "a/notes.txt"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(f"# {rel}\n", encoding="utf-8")
    assert sweep._tree_digest(str(tmp_path)) == pathlib_tree_digest(tmp_path)


def test_use_cache_false_never_touches_disk(tmp_path):
    stats = SweepStats()
    run_cells(specs_pair()[:1], jobs=1, cache_dir=tmp_path, use_cache=False, stats=stats)
    assert not sorted(tmp_path.glob("*.json"))
    assert stats.cache_hits == 0 and stats.cache_misses == 0
    assert stats.executed == 1


def test_clear_cache(tmp_path):
    run_cells(specs_pair(), jobs=1, cache_dir=tmp_path)
    assert clear_cache(tmp_path) == 2
    assert not sorted(tmp_path.glob("*.json"))
    assert clear_cache(tmp_path) == 0  # idempotent


def test_parallel_merge_preserves_spec_order(tmp_path):
    """With jobs=2 the completion order is nondeterministic; the merged
    list must still line up index-for-index with the input specs."""
    specs = [
        CellSpec(config=small_config(scheme="baseline", n=0)),
        CellSpec(config=small_config(scheme="ms-src", n=1)),
        CellSpec(config=small_config(scheme="ms-src+ap", n=1)),
    ]
    payloads = run_cells(specs, jobs=2, cache_dir=tmp_path)
    schemes = [p["config"]["scheme"] for p in payloads]
    assert schemes == ["baseline", "ms-src", "ms-src+ap"]
    ns = [p["config"]["n_checkpoints"] for p in payloads]
    assert ns == [0, 1, 1]


def test_partial_cache_mixes_hits_and_executions(tmp_path):
    specs = specs_pair()
    run_cells(specs[:1], jobs=1, cache_dir=tmp_path)  # pre-warm one cell
    stats = SweepStats()
    payloads = run_cells(specs, jobs=1, cache_dir=tmp_path, stats=stats)
    assert (stats.cache_hits, stats.cache_misses) == (1, 1)
    assert payloads[0]["config"]["scheme"] == "baseline"
    assert payloads[1]["config"]["scheme"] == "ms-src"


def test_sweep_stats_publish_metrics():
    stats = SweepStats(cache_hits=3, cache_misses=1)
    registry = MetricRegistry()
    stats.publish(registry)
    snap = {m["name"]: m for m in snapshot(registry)["metrics"]}
    assert snap["ms_sweep_cache_hits_total"]["value"] == 3
    assert snap["ms_sweep_cache_misses_total"]["value"] == 1


def test_cached_oracle_times_memoises(tmp_path):
    cfg = small_config(scheme="ms-src+ap", n=2)
    first = cached_oracle_times(cfg, cache_dir=tmp_path)
    assert first and all(isinstance(t, float) for t in first)
    assert len(sorted(tmp_path.glob("*.json"))) == 1
    second = cached_oracle_times(cfg, cache_dir=tmp_path)
    assert second == first
    assert cached_oracle_times(cfg, use_cache=False) == first


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert sweep.default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert sweep.default_jobs() == 1  # clamped
    monkeypatch.delenv("REPRO_JOBS")
    assert sweep.default_jobs() >= 1


def test_default_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert sweep.default_cache_dir() == tmp_path / "elsewhere"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert sweep.default_cache_dir().name == ".repro-cache"


def test_cache_cli_clear(tmp_path, capsys):
    run_cells(specs_pair()[:1], jobs=1, cache_dir=tmp_path)
    assert sweep.main(["--clear", "--cache-dir", str(tmp_path)]) == 0
    assert not sorted(tmp_path.glob("*.json"))
    out = capsys.readouterr().out
    assert "1" in out


@pytest.mark.parametrize("jobs", [1, 2])
def test_payload_has_reduced_fields(tmp_path, jobs):
    spec = CellSpec(config=small_config(n=2), bins=(5.0, 20.0, 2.5))
    (payload,) = run_cells([spec], jobs=jobs, cache_dir=tmp_path, use_cache=False)
    for field_name in ("throughput", "latency", "latency_percentiles",
                       "rounds_completed", "checkpoint", "digest", "kernel",
                       "binned_latency"):
        assert field_name in payload
    assert payload["kernel"]["events_popped"] > 0
    assert payload["binned_latency"], "bins requested → series must be present"
