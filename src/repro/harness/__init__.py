"""Experiment harness: configured runs, sweeps and figure/table drivers."""

from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    make_scheme,
    find_oracle_times,
)
from repro.harness.figures import (
    SweepCell,
    SweepResult,
    fig5_state_traces,
    fig12_fig13_sweep,
    fig14_checkpoint_time,
    fig15_instantaneous_latency,
    fig16_recovery_time,
    table1_failure_model,
    headline_numbers,
)
from repro.harness.digest import result_digest, result_fingerprint
from repro.harness.report import breakdown_row, format_table, format_series
from repro.harness.sweep import (
    CellSpec,
    SweepStats,
    cached_oracle_times,
    clear_cache,
    code_fingerprint,
    default_jobs,
    run_cells,
)

__all__ = [
    "CellSpec",
    "SweepStats",
    "cached_oracle_times",
    "clear_cache",
    "code_fingerprint",
    "default_jobs",
    "result_digest",
    "result_fingerprint",
    "run_cells",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "make_scheme",
    "find_oracle_times",
    "SweepCell",
    "SweepResult",
    "fig5_state_traces",
    "fig12_fig13_sweep",
    "fig14_checkpoint_time",
    "fig15_instantaneous_latency",
    "fig16_recovery_time",
    "table1_failure_model",
    "headline_numbers",
    "breakdown_row",
    "format_table",
    "format_series",
]
