"""Per-layer metrics of one traced pass, derived from what the children saw.

Inputs are the ``spans`` child's spans, operation facts and extra runs,
and the ``profile`` child's per-layer profile.  Every metric is printed
on every workload; one that the workload does not exercise (or cannot
see, like ``simulation.run_s`` inside an opaque ``run_cells`` call)
reads 0.  ``UNITS`` is the full list, in print order, and must equal
``per_layer`` in ``BENCHMARK.json`` (``perf/selftest.py`` checks it).
"""

from __future__ import annotations

import statistics

from perf.spans import LAYERS, total

# metric -> span it is the summed duration of
SPAN_METRICS = {
    "simulation.run_s": "simulation.run",
    "cluster.datacenter_build_s": "dsps.runtime_new",
    "dsps.app_build_s": "dsps.app_build",
    "dsps.runtime_build_s": "dsps.runtime_build",
    "dsps.start_s": "dsps.start",
    "metrics.reduce_s": "metrics.reduce",
    "telemetry.snapshot_s": "telemetry.snapshot",
    "monitor.replay_s": "monitor.replay",
    "profiling.timeline_s": "profiling.timeline",
    "profiling.critical_path_s": "profiling.critical_path",
    "profiling.chrome_trace_s": "profiling.chrome_trace",
    "inspect.bundle_build_s": "inspect.bundle_build",
    "inspect.bundle_write_s": "inspect.bundle_write",
    "harness.cold_s": "harness.run_cells_cold",
    "harness.warm_s": "harness.run_cells_warm",
    "harness.code_fingerprint_s": "harness.code_fingerprint",
    "harness.reduce_result_s": "harness.reduce_result",
    "scenarios.compile_s": "scenarios.compile",
}

# metric -> operation fact it is the sum of
COUNT_METRICS = {
    "simulation.events_popped": "events_popped",
    "cluster.channel_bytes_delivered": "channel_bytes",
    "dsps.tuples_processed": "tuples",
    "core.rounds_requested": "rounds_requested",
    "core.rounds_completed": "rounds_completed",
    "core.recoveries_completed": "recoveries_completed",
    "failures.injected": "failures_injected",
    "failures.haus_recovered": "haus_recovered",
    "failures.unrecoverable": "unrecoverable",
    "storage.bytes_written": "bytes_written",
    "storage.bytes_read": "bytes_read",
    "observability.trace_events": "trace_events",
    "monitor.ticks": "monitor_ticks",
    "inspect.bundle_bytes": "bundle_bytes",
    "harness.cache_hits": "cache_hits",
    "harness.cache_misses": "cache_misses",
}

RATIO_METRICS = (
    "simulation.pool_hit_ratio",
    "dsps.events_per_tuple",
    "core.round_complete_ratio",
    "core.scheme_host_overhead_ratio",
    "observability.trace_overhead_ratio",
    "telemetry.overhead_ratio",
    "monitor.overhead_ratio",
    "harness.digest_match_ratio",
    "scenarios.expectations_met_ratio",
)

RATE_METRICS = (
    "simulation.micro_timeout_events_per_s",
    "simulation.micro_store_ops_per_s",
    "cluster.micro_channel_msgs_per_s",
    "storage.micro_write_ops_per_s",
    "state.micro_size_estimates_per_s",
    "observability.micro_emit_per_s",
    "telemetry.micro_counter_inc_per_s",
)

UNITS: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{name: "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    **{name: "ratio" for name in RATIO_METRICS},
    **{name: "1/s" for name in RATE_METRICS},
    "simulation.host_us_per_event": "us",
    "dsps.host_us_per_tuple": "us",
    "core.sim_ckpt_s_median": "s",
    "core.sim_recovery_s": "s",
    "harness.import_s": "s",
}


def _over(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans_pass: dict, profile_pass: dict) -> dict[str, float]:
    """Every name in ``UNITS`` for one workload."""
    spans = spans_pass["spans"]
    facts = [op["facts"] for op in spans_pass["ops"]]

    def fact(key: str) -> float:
        return sum(f.get(key, 0) for f in facts)

    out = dict.fromkeys(UNITS, 0.0)
    for name, span_name in SPAN_METRICS.items():
        out[name] = total(spans, span_name)
    for name, key in COUNT_METRICS.items():
        out[name] = fact(key)
    for name, extra in spans_pass.get("extras", {}).items():
        out[name] = extra["value"]

    run_s = out["simulation.run_s"]
    out["simulation.host_us_per_event"] = _over(1e6 * run_s, fact("events_popped"))
    out["dsps.host_us_per_tuple"] = _over(1e6 * run_s, fact("tuples"))
    out["dsps.events_per_tuple"] = _over(fact("events_popped"), fact("tuples"))
    out["simulation.pool_hit_ratio"] = _over(
        fact("pool_hits"), fact("pool_hits") + fact("pool_misses")
    )
    out["core.round_complete_ratio"] = _over(
        fact("rounds_completed"), fact("rounds_requested")
    )
    ckpt_seconds = [s for f in facts for s in f.get("sim_ckpt_s", [])]
    out["core.sim_ckpt_s_median"] = statistics.median(ckpt_seconds) if ckpt_seconds else 0.0
    out["core.sim_recovery_s"] = fact("sim_recovery_s")
    out["harness.import_s"] = spans_pass["import_s"]
    out["harness.digest_match_ratio"] = _over(fact("goldens_matched"), fact("goldens_checked"))
    out["scenarios.expectations_met_ratio"] = _over(
        fact("expectations_met"), fact("expectations")
    )

    # The profiler inflates Python-level time, so its layer split is
    # applied as shares to the span it covered in the unprofiled pass.
    profile = profile_pass["profile"]
    profiled_s = sum(row["self_s"] for row in profile.values())
    covered_s = run_s or out["harness.cold_s"]
    for layer, row in profile.items():
        out[f"{layer}.self_s"] = covered_s * _over(row["self_s"], profiled_s)
        out[f"{layer}.calls"] = row["calls"]
    return out
