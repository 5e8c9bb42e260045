"""Every value a test pins: the runs it is read from, how it is computed,
and the one check against its pin.

The five values live in ``tests/PINS.json``, which has the digest files'
shape (``{environment, digests}``) and is read and written by
:mod:`repro.scenarios.goldens`.  ``python benchmarks/repin.py`` imports this
module and rewrites the file from :func:`compute`, together with every other
pin.
"""

import hashlib
import importlib.util
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.harness import ExperimentConfig, figures, run_experiment
from repro.harness.digest import canonical_cases, canonical_json, config_fingerprint
from repro.scenarios.goldens import golden_status, load_goldens

_REPO = Path(__file__).resolve().parent.parent
PIN_FILE = _REPO / "tests" / "PINS.json"
REPIN = "python benchmarks/repin.py"

#: Every key a stubbed figure driver reads from a cell payload.
STUB_PAYLOAD = {
    "throughput": 1, "latency": 1.0, "rounds_completed": 0, "latency_percentiles": {},
    "checkpoint": None, "incomplete_rounds": [], "binned_latency": [], "recovery": None,
}


#: Pins whose material holds no simulated float: compared on every build.
EVERY_BUILD = frozenset({"figure-cells/key-material"})


def check(name: str, value: str, path: Path = PIN_FILE) -> None:
    """Skip off the build the pins were recorded on (unless ``name`` is in
    :data:`EVERY_BUILD`); fail, naming the re-pin command, when ``value`` is
    not ``name``'s pin in ``path``."""
    assert path.is_file(), f"{path} is missing; re-pin with {REPIN}"  # not an env-skip
    pins = load_goldens(path)
    if name not in EVERY_BUILD and golden_status(pins, name, value) == "env-skip":
        pytest.skip(f"{name}: pinned under a different python/numpy build")
    assert value == pins["digests"].get(name), (
        f"{name}: {value} is not its pin in {path.name} ({pins['digests'].get(name)}); "
        f"if the change is intended, re-pin with {REPIN}"
    )


def script(name: str):
    """``benchmarks/<name>.py`` as a module, loaded by path (``benchmarks/``
    is not a package).  The one loader: ``repin.py`` imports this module."""
    spec = importlib.util.spec_from_file_location(name, _REPO / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- the runs ------------------------------------------------------------------


def recovery_cell():
    """The canonical recovery cell (tmi/ms-src+ap@2, failure at 35 s:
    teardown, rewire, re-bound control links), traced and telemetered."""
    cfg, kwargs = canonical_cases()["tmi/ms-src+ap@2+failure"]
    return run_experiment(cfg, trace=True, telemetry=True, **kwargs)


def observed_run():
    """``perf``'s ``observed_run`` operation: bcp/ms-src+ap on the 55-worker
    cluster, traced, telemetered and monitored."""
    cfg = ExperimentConfig(
        app="bcp", scheme="ms-src+ap", n_checkpoints=3, window=30.0, warmup=10.0,
        workers=55, spares=60, racks=4, seed=1, monitor_period=5.0,
    )
    return run_experiment(cfg, trace=True, telemetry=True)


def figure_cells() -> list[str]:
    """Every figure cell's cache key material, oracle base config, failure
    instant and latency bins at the fast and the paper scale, one line
    each: the figure drivers run against stubs, so nothing is simulated."""
    records = []

    def fake_run_cells(specs, **kw):
        records.extend(canonical_json(s.key_material()) for s in specs)
        return [dict(STUB_PAYLOAD)] * len(specs)

    def fake_oracle_times(cfg, **kw):
        records.append("oracle:" + canonical_json(config_fingerprint(cfg)))
        return [1.0, 2.0]

    with mock.patch.object(figures, "run_cells", fake_run_cells), \
            mock.patch.object(figures, "cached_oracle_times", fake_oracle_times):
        for window, warmup in ((150.0, 30.0), (600.0, 60.0)):
            scale = {"window": window, "warmup": warmup}
            figures.fig12_fig13_sweep(checkpoint_counts=[0, 1, 3, 5, 8], **scale)
            figures.fig14_checkpoint_time(**scale)
            figures.fig15_instantaneous_latency(app="bcp", **scale)
            figures.fig16_recovery_time(**scale)
    return records


# -- the five values -----------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recovery_cell_trace(res) -> str:
    """``recovery-cell/trace``: the recovery cell's trace JSONL."""
    return _sha256(res.trace_jsonl().encode("utf-8"))


def recovery_cell_bundle_id(res) -> str:
    """``recovery-cell/bundle-id``: the recovery cell's run bundle."""
    return res.run_bundle()["manifest"]["bundle_id"]


def snapshot_minus_percentiles(res) -> str:
    """``observed-run/snapshot-minus-percentiles``: every count, sum, min,
    max, mean, counter, gauge and series point of the telemetry snapshot."""
    snap = res.telemetry_snapshot()
    metrics = [
        {k: v for k, v in metric.items() if k not in ("p50", "p95", "p99")}
        for metric in snap["metrics"]
    ]
    text = json.dumps(
        dict(snap, metrics=metrics), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return _sha256(text.encode("utf-8"))


def telemetry_file(res, path: Path) -> str:
    """``observed-run/telemetry-file``: the file ``write_telemetry`` writes
    to ``path``."""
    res.write_telemetry(str(path))
    return _sha256(path.read_bytes())


def key_material(records: list[str]) -> str:
    """``figure-cells/key-material``: :func:`figure_cells`' lines."""
    return _sha256("\n".join(records).encode("utf-8"))


def compute(tmp_dir: Path) -> dict[str, str]:
    """The five values, from one run of each builder (files go to ``tmp_dir``)."""
    cell, observed = recovery_cell(), observed_run()
    return {
        "recovery-cell/trace": recovery_cell_trace(cell),
        "recovery-cell/bundle-id": recovery_cell_bundle_id(cell),
        "observed-run/snapshot-minus-percentiles": snapshot_minus_percentiles(observed),
        "observed-run/telemetry-file": telemetry_file(observed, tmp_dir / "run.telemetry.json"),
        "figure-cells/key-material": key_material(figure_cells()),
    }
