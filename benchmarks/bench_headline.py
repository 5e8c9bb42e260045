"""Headline claims (§I) and per-technique ablations (X1/X2 in DESIGN.md).

Derived from the Fig. 12/13 sweep:

* source preservation: +35% throughput / -9% latency at 0 checkpoints;
* parallel+asynchronous checkpointing: +28% throughput at 3 checkpoints
  (over MS-src);
* application-aware checkpointing: +14% throughput at 3 checkpoints
  (over MS-src+ap);
* all three together: +226% throughput / -57% latency vs the baseline at
  3 checkpoints (averaged over the three applications).

The reproduction asserts directions and coarse magnitudes — per
EXPERIMENTS.md, the simulated baseline degrades less steeply than the
paper's C++ system, so combined gains land lower but ordered the same.
"""

import dataclasses
import os

from repro.harness import format_table
from repro.harness.figures import headline_numbers

PAPER = {
    "src_thpt_gain_0ckpt": 0.35,
    "src_lat_gain_0ckpt": 0.09,
    "ap_thpt_gain_3ckpt": 0.28,
    "aa_thpt_gain_3ckpt": 0.14,
    "total_thpt_gain_3ckpt": 2.26,
    "total_lat_gain_3ckpt": 0.57,
}


def test_headline_numbers(benchmark, get_sweep, sweep_stats, write_artifact, scale):
    numbers = benchmark.pedantic(lambda: headline_numbers(get_sweep()), rounds=1, iterations=1)
    rows = [
        [key, f"{value:+.1%}", f"{PAPER[key]:+.1%}"]
        for key, value in numbers.items()
    ]
    print("\n" + format_table(
        ["claim", "measured", "paper"], rows, title="Headline claims (3-app averages)"
    ))

    # half of the figure record that benchmarks/check_regression.py
    # compares with BENCH_baseline.json exactly (sweep_stats, cache
    # traffic, is left out of it); no-op unless REPRO_ARTIFACT_DIR is set
    sweep = get_sweep()
    write_artifact("BENCH_headline.json", {
        "mode": scale.mode,
        "headline": numbers,
        "sweep_stats": {
            "jobs": sweep_stats.jobs,
            "cells": sweep_stats.cells,
            "cache_hits": sweep_stats.cache_hits,
            "cache_misses": sweep_stats.cache_misses,
            "executed": sweep_stats.executed,
        },
        "cells": [dataclasses.asdict(c) for c in sweep.cells],
    })

    # directions must all hold
    assert numbers["src_thpt_gain_0ckpt"] > 0.10  # source preservation helps
    assert numbers["src_lat_gain_0ckpt"] > 0.0
    assert numbers["ap_thpt_gain_3ckpt"] > -0.05  # ap never hurts vs src
    assert numbers["aa_thpt_gain_3ckpt"] > -0.05
    assert numbers["total_thpt_gain_3ckpt"] > 0.15  # the full system wins
    assert numbers["total_lat_gain_3ckpt"] > 0.0


def test_kernel_microbench(write_artifact, scale):
    """Kernel fast-path smoke on one headline cell: identical runs pop
    identical event counts and the timeout free list absorbs the churn
    (both hard; the pool counts are timeouts only).  ``BENCH_kernel.json``
    is the record's ``kernel`` block: ``check_regression.py`` holds all
    three counts to the baseline's exactly.  The wall-clock and events/sec are printed for the reader
    and recorded nowhere — host time is ``perf/``'s to judge.
    """
    import time

    from repro.harness import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        app="tmi", scheme="ms-src+ap", n_checkpoints=2, window=60.0, warmup=20.0,
        workers=8, spares=12, racks=2, seed=1, app_params={"n_minutes": 0.25},
    )
    run_experiment(cfg)  # warm-up: imports, allocator, caches
    wall = float("inf")
    stats = None
    popped = set()
    for _ in range(3):
        t0 = time.perf_counter()  # repro-lint: disable=DET001 (host timing, not simulated)
        res = run_experiment(cfg)
        elapsed = time.perf_counter() - t0  # repro-lint: disable=DET001 (host timing, not simulated)
        kernel = res.runtime.env.kernel_stats()
        popped.add(kernel["events_popped"])
        if elapsed < wall:
            wall, stats = elapsed, kernel
    events_per_sec = stats["events_popped"] / wall
    hit_rate = stats["pool_hits"] / max(1, stats["pool_hits"] + stats["pool_misses"])
    print(
        f"\nkernel microbench: {wall:.3f}s wall, {events_per_sec:,.0f} events/sec, "
        f"pool hit-rate {hit_rate:.2%} ({stats['pool_hits']} hits / {stats['pool_misses']} misses)"
    )
    # the engine's work is part of the determinism contract
    assert len(popped) == 1, f"events_popped varied across identical runs: {popped}"
    # the timeout free list must actually absorb the steady-state churn
    assert hit_rate > 0.90, f"timeout pool hit-rate collapsed: {hit_rate:.2%}"
    write_artifact("BENCH_kernel.json", {
        "mode": scale.mode,
        "events_popped": stats["events_popped"],
        "pool_hits": stats["pool_hits"],
        "pool_misses": stats["pool_misses"],
    })


def test_trace_artifact(write_artifact):
    """A small traced checkpoint+failure+recovery run, exported as JSONL
    and summary artifacts so every CI run ships an inspectable timeline."""
    from repro.harness import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        app="tmi", scheme="ms-src+ap", n_checkpoints=2, window=60.0, warmup=20.0,
        workers=8, spares=12, racks=2, seed=1, enable_recovery=True,
        app_params={"n_minutes": 0.25},
    )
    res = run_experiment(cfg, trace=True, failure_at=45.0)
    summary = res.trace_summary()
    assert summary["rounds"], "traced run should record checkpoint rounds"
    assert summary["recoveries"], "traced run should record the global rollback"
    # causal reconstruction: every completed round has a critical path
    # that tiles [round.start, round.complete] exactly
    paths = res.critical_paths()
    assert paths, "traced run should yield at least one critical path"
    for p in paths:
        assert abs(p.hop_sum() - p.seconds) < 1e-9
    print("\n" + res.trace_report())
    path = write_artifact("TRACE_summary.json", summary)
    if path is not None:
        art_dir = os.path.dirname(path)
        res.write_trace(os.path.join(art_dir, "TRACE_events.jsonl"))
        # Perfetto-loadable timeline (ui.perfetto.dev -> Open trace file)
        res.write_chrome_trace(os.path.join(art_dir, "TRACE_headline.perfetto.json"))
        # the comparable RunBundle: check_regression.py compares its file
        # hashes with the committed benchmarks/BUNDLE_baseline exactly
        res.write_run_bundle(art_dir, name="BUNDLE_headline")


def test_monitor_artifact(write_artifact, scale):
    """A monitored headline run: the live plane watches the same cell with
    a deliberately tight checkpoint-staleness SLO, so every CI run ships a
    fired-and-resolved alert log plus the per-HAU health timeline.  The
    assertions below are the gate; exact alert counts are pinned by
    ``examples/scenarios/slo-staleness-alert.yaml``'s ``expect.alerts``."""
    from repro.harness import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        app="tmi", scheme="ms-src+ap", n_checkpoints=2, window=60.0, warmup=20.0,
        workers=8, spares=12, racks=2, seed=1, app_params={"n_minutes": 0.25},
        monitor_period=1.0,
        # staleness below the ~20s between rounds fires; latency relaxed so
        # only the staleness SLO alerts here (mirrors slo-staleness-alert.yaml)
        monitor_slos={"checkpoint-staleness": 12.0, "latency-p99": 60.0},
    )
    res = run_experiment(cfg)
    alerts = res.alerts
    assert alerts["ticks"] > 0, "monitored run should tick"
    assert alerts["summary"]["fired"] > 0, "staleness SLO should fire between rounds"
    assert alerts["summary"]["resolved"] > 0, "commits should resolve staleness alerts"
    timeline = res.health_timeline
    assert timeline, "monitored run should record health transitions"
    write_artifact("ALERTS_headline.json", {
        "mode": scale.mode,
        "period": alerts["period"],
        "ticks": alerts["ticks"],
        "summary": alerts["summary"],
        "log_length": len(alerts["log"]),
        "health_transitions": len(timeline),
    })
    write_artifact("HEALTH_headline.json", {"timeline": timeline})


def test_telemetry_artifact(write_artifact):
    """A small telemetry-enabled run, exported as the deterministic JSON
    snapshot artifact (the metrics counterpart of the trace artifact)."""
    from repro.harness import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        app="tmi", scheme="ms-src+ap", n_checkpoints=2, window=60.0, warmup=20.0,
        workers=8, spares=12, racks=2, seed=1,
        app_params={"n_minutes": 0.25},
    )
    res = run_experiment(cfg, telemetry=True)
    snap = res.telemetry_snapshot()
    assert snap["metrics"], "telemetry run should register metrics"
    names = {m["name"] for m in snap["metrics"]}
    assert "ms_hau_tuples_total" in names
    assert "ms_checkpoint_write_seconds" in names
    assert any(snap["series"].values()), "sampler should record per-HAU series"
    path = write_artifact("TELEMETRY_snapshot.json", snap)
    if path is not None:
        # canonical re-write: the artifact is byte-stable across same-seed
        # runs (sort_keys + repr floats), unlike write_artifact's default
        res.write_telemetry(path)
