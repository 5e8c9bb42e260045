"""Every value a test pins: the runs it is read from, how it is computed,
and the one check against its pin.

The values live in ``tests/PINS.json``, which has the digest files'
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

from repro.failures.injector import FailurePlan, PlannedFailure
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


def _synth(scheme: str, stages: list[dict], edges: str, **fields):
    """A small synthetic-topology config on a four-worker cluster, seed 1;
    ``edges`` is ``"s-w w-k"``: stage pairs, default routing."""
    edge_list = [dict(zip(("src", "dst"), pair.split("-"))) for pair in edges.split()]
    topology = {"stages": stages, "edges": edge_list}
    return ExperimentConfig(
        app="synth", scheme=scheme, workers=4, spares=4, racks=2, seed=1,
        app_params={"topology": topology}, **fields,
    )


def coverage_runs() -> dict:
    """Three small runs that reach the metrics the two runs above leave at
    zero, by name, traced and telemetered:

    - ``aa-run``: ms-src+ap+aa on a sawtooth map tier: a profile with a
      dynamic HAU, turning points, ``icr`` and ``deadline`` decisions, and
      a monitor whose staleness alerts fire and resolve;
    - ``baseline-run``: the baseline on a four-HAU chain, one HAU per
      node: a single-HAU restart, then a HAU and its upstream lost
      together;
    - ``diamond-run``: ms-src on a fan-in whose slow branch holds tuples
      back behind the fast branch's token, then a node loss and a global
      rollback.
    """
    sawtooth = [
        {"name": "s", "kind": "source", "replicas": 2, "interval": 0.1},
        {"name": "w", "kind": "map", "replicas": 4, "state_window": 32},
        {"name": "k", "kind": "sink", "replicas": 1},
    ]
    aa = _synth(
        "ms-src+ap+aa", sawtooth, "s-w w-k", n_checkpoints=3,
        window=45.0, warmup=10.0, monitor_period=1.0,
        monitor_slos={"checkpoint-staleness": 12.0, "latency-p99": 60.0},
    )
    aa.app_params["topology"]["edges"][0].update(routing="hash", pairing="all")
    chain = [
        {"name": "s", "kind": "source", "replicas": 1, "interval": 0.2},
        {"name": "m", "kind": "map", "replicas": 1, "state_window": 16},
        {"name": "n", "kind": "map", "replicas": 1, "state_window": 16},
        {"name": "k", "kind": "sink", "replicas": 1},
    ]
    baseline = _synth(
        "baseline", chain, "s-m m-n n-k", n_checkpoints=4,
        window=40.0, warmup=10.0, enable_recovery=True,
    )
    # HAUs sit on w0..w3 in id order (k, m, n, s): n alone, then m with s
    losses = FailurePlan([
        PlannedFailure(18.0, "node", "w2"),
        PlannedFailure(30.0, "node", "w1"),
        PlannedFailure(30.0, "node", "w3"),
    ])
    fan_in = [
        {"name": "s", "kind": "source", "replicas": 2, "interval": 0.2},
        {"name": "a", "kind": "map", "replicas": 2},
        {"name": "b", "kind": "map", "replicas": 2, "cost_per_byte": 1e-6},
        {"name": "k", "kind": "sink", "replicas": 1},
    ]
    diamond = _synth(
        "ms-src", fan_in, "s-a a-b a-k b-k",
        n_checkpoints=2, window=20.0, warmup=5.0, enable_recovery=True,
    )
    rollback = FailurePlan([PlannedFailure(21.0, "node", "w1")])
    return {
        "aa-run": run_experiment(aa, trace=True, telemetry=True),
        "baseline-run": run_experiment(baseline, trace=True, telemetry=True, failure_plan=losses),
        "diamond-run": run_experiment(diamond, trace=True, telemetry=True, failure_plan=rollback),
    }


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


# -- the values ----------------------------------------------------------------


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
    """Every value, from one run of each builder (files go to ``tmp_dir``)."""
    cell, observed = recovery_cell(), observed_run()
    coverage = {
        f"{name}/telemetry-file": telemetry_file(res, tmp_dir / f"{name}.telemetry.json")
        for name, res in coverage_runs().items()
    }
    return {
        "recovery-cell/trace": recovery_cell_trace(cell),
        "recovery-cell/bundle-id": recovery_cell_bundle_id(cell),
        "observed-run/snapshot-minus-percentiles": snapshot_minus_percentiles(observed),
        "observed-run/telemetry-file": telemetry_file(observed, tmp_dir / "run.telemetry.json"),
        "figure-cells/key-material": key_material(figure_cells()),
        **coverage,
    }
