"""The six workloads, run inside a child interpreter (see perf/run.py).

Every workload drives the program through its public functions only and
with default knobs only — never ``scheduler=`` or ``batch_quantum=`` —
so "which configuration is fast" is answered by changing a default, and
deleting a knob cannot break the benchmark.  ``run_op`` repeats
``run_experiment``'s construction sequence call by call, with a span
around each call into a layer, because the set-up / run split cannot be
seen from outside ``run_experiment`` (``perf/selftest.py`` pins the two
to the same digest).

An *operation* is one simulation run, or one sweep cell.  Each workload
function runs its operations on a ``PassLog``, which keeps one record
per operation: ``error`` is the exception text if it raised, ``checks``
the invariants it broke; either makes the operation count as failed.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass
from pathlib import Path

from repro.apps import APPS
from repro.cluster.topology import ClusterSpec
from repro.dsps.runtime import DSPSRuntime, RuntimeConfig
from repro.failures.injector import FailureInjector, FailurePlan, PlannedFailure
from repro.harness.digest import canonical_cases, result_digest
from repro.harness.experiment import ExperimentConfig, ExperimentResult, make_scheme
from repro.harness.sweep import (
    CellSpec,
    SweepStats,
    cell_key,
    code_fingerprint,
    reduce_result,
    run_cells,
)
from repro.inspect.bundle import build_bundle, write_bundle
from repro.monitor.cli import replay
from repro.monitor.plane import MonitorPlane
from repro.monitor.slo import default_slos
from repro.scenarios import check_expectations, compile_scenario, load_path
from repro.scenarios.goldens import golden_status, load_goldens
from repro.simulation.core import Environment
from repro.telemetry import Sampler

from perf.passlog import PassLog
from perf.spans import SpanRecorder, total

REPO_ROOT = Path(__file__).resolve().parents[1]

MS_SCHEMES = ("ms-src", "ms-src+ap", "ms-src+ap+aa")


@dataclass(frozen=True)
class Size:
    """Workload dimensions.  ``FULL`` is what the benchmark measures;
    ``SMALL`` only lets ``perf/selftest.py`` walk every builder quickly."""

    window: float
    warmup: float
    workers: int
    spares: int
    racks: int
    node_victim: str  # hosts a stateful BCP HAU
    chain_replicas: int
    canonical_cells: tuple[str, ...]
    scenario_cells: tuple[str, ...]


# 30 s windows (the paper uses 600 s, the repo's fast mode 150 s) keep a
# pass over a workload's operations near 2-5 host seconds, so that one
# benchmark run holds several passes and can report their median.
#
# The sweep cells are six of the eleven committed golden cells, one per
# path a sweep can take: an MS round on BCP, a whole-app kill through
# ``failure_at``, a rack burst through a failure trace under ``+aa``, a
# monitored run with alert expectations, a straggler degradation, and
# the synth app.
FULL = Size(
    window=30.0, warmup=10.0, workers=55, spares=60, racks=4, node_victim="w30",
    chain_replicas=1000,
    canonical_cells=("bcp/ms-src@1", "tmi/ms-src+ap@2+failure"),
    scenario_cells=("rack-burst", "slo-staleness-alert", "straggler-node",
                    "synth-fanout-chaos"),
)
SMALL = Size(
    window=12.0, warmup=4.0, workers=8, spares=12, racks=2, node_victim="w3",
    chain_replicas=8,
    canonical_cells=(),
    scenario_cells=("straggler-node", "synth-fanout-chaos"),  # the sub-second cells
)

CHAIN_TUPLES_PER_SOURCE = 6
# 6 tuples at 5 ms leave the sources by 0.03 s; 1.0 s also covers three
# stage-deep flush waves should a 0.25 s batching quantum become default.
CHAIN_UNTIL = 1.0


@dataclass
class Op:
    """One simulation run: a config plus what ``run_experiment`` would
    have received as keyword arguments."""

    name: str
    cfg: ExperimentConfig
    failures: tuple[PlannedFailure, ...] = ()
    trace: bool = False
    telemetry: bool = False


def config_for(size: Size, seed: int, **fields) -> ExperimentConfig:
    return ExperimentConfig(
        window=size.window, warmup=size.warmup, seed=seed,
        workers=size.workers, spares=size.spares, racks=size.racks, **fields,
    )


def run_op(rec: SpanRecorder, op: Op) -> tuple[ExperimentResult, FailureInjector | None]:
    """``run_experiment``, call by call, with a span around each call
    into a layer.  Everything before simulated time starts is ``setup``."""
    cfg = op.cfg
    monitor_on = cfg.monitor_period > 0.0
    with rec.span("setup"):
        with rec.span("simulation.env_new"):
            env = Environment()
        tracer = env.enable_tracing() if (op.trace or monitor_on) else None
        registry = env.enable_telemetry() if (op.telemetry or monitor_on) else None
        with rec.span("dsps.app_build"):
            app = APPS[cfg.app].build(seed=cfg.seed, **cfg.app_params)
        with rec.span("dsps.runtime_new"):
            runtime = DSPSRuntime(
                env,
                app,
                make_scheme(cfg),
                RuntimeConfig(
                    seed=cfg.seed,
                    cluster=ClusterSpec(
                        workers=cfg.workers, spares=cfg.spares, racks=cfg.racks
                    ),
                    channel_capacity=16,
                    inbox_capacity=32,
                ),
            )
        with rec.span("dsps.runtime_build"):
            runtime.build()
        with rec.span("dsps.start"):
            runtime.start()
        monitor = None
        if monitor_on:
            with rec.span("monitor.attach"):
                monitor = MonitorPlane(
                    cfg.monitor_period,
                    slos=default_slos(cfg.monitor_slos or None),
                    racks={hid: h.node.rack for hid, h in runtime.haus.items()},
                    nodes={hid: h.node.node_id for hid, h in runtime.haus.items()},
                ).attach(env)
        injector = None
        if op.failures:
            with rec.span("failures.injector_start"):
                injector = FailureInjector(
                    env, runtime.dc, FailurePlan(events=list(op.failures))
                )
                injector.start()
        sampler = None
        if op.telemetry:
            with rec.span("telemetry.sampler_new"):
                sampler = Sampler(runtime, registry=registry)
    with rec.profiled_span("simulation.run"):
        env.run(until=cfg.end)
    with rec.span("metrics.reduce"):
        probe = app.params.get("probe_prefix", "")
        throughput = runtime.metrics.stage_throughput(probe, cfg.warmup, cfg.end)
        latency = runtime.metrics.stage_latency(probe, cfg.warmup, cfg.end)
        percentiles = runtime.metrics.stage_latency_percentiles(
            probe, cfg.warmup, cfg.end
        )
    result = ExperimentResult(
        config=cfg,
        throughput=throughput,
        latency=latency,
        scheme=runtime.scheme,
        runtime=runtime,
        tracer=tracer,
        telemetry=registry,
        telemetry_sampler=sampler,
        latency_percentiles=percentiles,
        monitor=monitor,
    )
    return result, injector


def run_facts(result: ExperimentResult, injector: FailureInjector | None) -> dict:
    """Public counters of one finished run (simulated statistics: they
    repeat exactly for a seed)."""
    runtime = result.runtime
    logs = result.checkpoint_logs
    complete = [log for log in logs if getattr(log, "complete", False)]
    scheme = result.scheme
    recoveries = [r for r in getattr(scheme, "recoveries", []) if r.complete]
    return {
        "tuples": sum(h.tuples_processed for h in runtime.haus.values()),
        **runtime.env.kernel_stats(),
        "bytes_written": runtime.storage.bytes_written,
        "bytes_read": runtime.storage.bytes_read,
        "channel_bytes": sum(c.bytes_delivered for c in runtime.dc.channels()),
        "rounds_requested": len(logs),
        "rounds_completed": len(complete),
        "sim_ckpt_s": [log.wall_clock() for log in complete],
        "recoveries_completed": len(recoveries),
        "sim_recovery_s": sum(r.total for r in recoveries),
        "haus_recovered": sum(r.haus_recovered for r in recoveries)
        + len(getattr(scheme, "recovered", [])),
        "unrecoverable": len(getattr(scheme, "unrecoverable", [])),
        "failures_injected": len(injector.injected) if injector is not None else 0,
        "trace_events": len(result.tracer.events) if result.tracer is not None else 0,
        "monitor_ticks": result.alerts.get("ticks", 0),
    }


def _run_ops(log: PassLog, ops: list[Op], check=None, after=None) -> None:
    """Run each op as one operation of the pass; ``after`` adds further
    calls inside the operation, ``check`` names the invariants it broke."""
    for op in ops:
        with log.operation(op.name) as record:
            result, injector = run_op(log.rec, op)
            if after is not None:
                record["facts"].update(after(log.rec, result))
            record["facts"].update(run_facts(result, injector))
            record["digest"] = result_digest(result)
            if check is not None:
                record["checks"] = check(op, record["facts"])


# -- 1. dataflow_steady --------------------------------------------------------

def dataflow_steady(log: PassLog, seed: int, size: Size, out_dir: Path) -> None:
    _run_ops(log, [
        Op(f"{app}/none", config_for(size, seed, app=app, scheme="none"))
        for app in ("tmi", "bcp", "signalguru")
    ])


# -- 2. checkpoint_rounds ------------------------------------------------------

def _check_checkpoints(op: Op, facts: dict) -> list[str]:
    if op.cfg.scheme in MS_SCHEMES and facts["rounds_completed"] < 1:
        return ["no checkpoint round completed"]
    if op.cfg.scheme == "baseline" and facts["bytes_written"] <= 0:
        return ["baseline wrote no checkpoint bytes"]
    return []


def checkpoint_rounds(log: PassLog, seed: int, size: Size, out_dir: Path) -> None:
    _run_ops(log, [
        Op(f"bcp/{scheme}@3", config_for(size, seed, app="bcp", scheme=scheme, n_checkpoints=3))
        for scheme in ("baseline",) + MS_SCHEMES
    ], _check_checkpoints)


# -- 3. burst_recovery ---------------------------------------------------------

def _check_recovered(_op: Op, facts: dict) -> list[str]:
    return [] if facts["haus_recovered"] >= 1 else ["no completed recovery recorded"]


def burst_recovery(log: PassLog, seed: int, size: Size, out_dir: Path) -> None:
    burst_at = size.warmup + 0.6 * size.window
    whole_app_at = size.warmup + 2.0 * size.window / 3.0
    _run_ops(log, [
        Op(
            "tmi/ms-src+ap@3+rack-burst",
            config_for(size, seed, app="tmi", scheme="ms-src+ap", n_checkpoints=3,
                    enable_recovery=True),
            failures=(PlannedFailure(at=burst_at, kind="rack", target="rack1", cause="burst"),),
        ),
        Op(
            "tmi/ms-src+ap+aa@3+whole-app",
            config_for(size, seed, app="tmi", scheme="ms-src+ap+aa", n_checkpoints=3,
                    enable_recovery=True),
            # every node hosting an HAU fails at once (the paper's worst case)
            failures=tuple(
                PlannedFailure(at=whole_app_at, kind="node", target=f"w{i}", cause="whole-app")
                for i in range(size.workers)
            ),
        ),
        Op(
            "bcp/baseline@3+node-kill",
            config_for(size, seed, app="bcp", scheme="baseline", n_checkpoints=3,
                    enable_recovery=True),
            failures=(
                PlannedFailure(at=burst_at, kind="node", target=size.node_victim, cause="single"),
            ),
        ),
    ], _check_recovered)


# -- 4. observed_run -----------------------------------------------------------

def observed_op(seed: int, size: Size, trace=True, telemetry=True, monitor=True) -> Op:
    return Op(
        "bcp/ms-src+ap@3+observed",
        config_for(size, seed, app="bcp", scheme="ms-src+ap", n_checkpoints=3,
                monitor_period=5.0 if monitor else 0.0),
        trace=trace,
        telemetry=telemetry,
    )


def observed_run(log: PassLog, seed: int, size: Size, out_dir: Path) -> None:
    def export(rec: SpanRecorder, result: ExperimentResult) -> dict:
        trace_path = out_dir / "run.trace.jsonl"
        with rec.span("observability.write_trace"):
            result.write_trace(str(trace_path))
        with rec.span("profiling.chrome_trace"):
            result.write_chrome_trace(str(out_dir / "run.chrome.json"))
        with rec.span("telemetry.snapshot"):
            result.write_telemetry(str(out_dir / "run.telemetry.json"))
        # the three calls ExperimentResult.write_run_bundle makes
        with rec.span("harness.reduce_result"):
            payload = reduce_result(result)
        with rec.span("inspect.bundle_build"):
            bundle = build_bundle(payload, telemetry=result.telemetry_snapshot())
        with rec.span("inspect.bundle_write"):
            bundle_dir = write_bundle(bundle, out_dir / "bundles")
        with rec.span("profiling.timeline"):
            result.timeline()
        with rec.span("profiling.critical_path"):
            result.critical_paths()
        with rec.span("observability.trace_report"):
            result.trace_report()
        with rec.span("monitor.replay"):
            replay(str(trace_path), period=result.config.monitor_period)
        return {"bundle_bytes": sum(p.stat().st_size for p in bundle_dir.iterdir())}

    def check(_op: Op, facts: dict) -> list[str]:
        broken = []
        if facts["trace_events"] <= 0:
            broken.append("traced run recorded no events")
        if facts["monitor_ticks"] <= 0:
            broken.append("monitored run recorded no ticks")
        return broken

    _run_ops(log, [observed_op(seed, size)], check, after=export)


# -- 5. sweep_goldens ----------------------------------------------------------

CANONICAL_GOLDENS = REPO_ROOT / "benchmarks" / "DIGEST_baseline.json"
SCENARIO_DIR = REPO_ROOT / "examples" / "scenarios"


def sweep_goldens(log: PassLog, seed: int, size: Size, out_dir: Path) -> None:
    """Compile, then one cold ``run_cells`` call per cell (so that each
    cell is an operation with its own seconds and calibration), then one
    warm call over all of them."""
    rec = log.rec
    # --seed 1 runs every cell at its committed seed, so its digest can
    # be checked against the golden; any other seed shifts all of them.
    shift = seed - 1
    # both files share one shape; in another environment than the one a
    # file records, its digests go unchecked ("env-skip"), not failed
    golden_files = [] if shift else [
        load_goldens(CANONICAL_GOLDENS), load_goldens(SCENARIO_DIR / "GOLDENS.json"),
    ]
    dirs = {"cache_dir": out_dir / "cache", "bundle_dir": out_dir / "bundles"}
    docs: dict[str, dict] = {}
    specs: dict[str, CellSpec] = {}

    with log.operation("compile") as record, rec.span("setup"):
        cases = canonical_cases()
        for name in size.canonical_cells:
            cfg, kwargs = cases[name]
            specs[name] = CellSpec(config=cfg, failure_at=kwargs.get("failure_at"))
        with rec.span("scenarios.compile"):
            for name in size.scenario_cells:
                path = SCENARIO_DIR / f"{name}.yaml"
                docs[name] = load_path(path)
                specs[name] = compile_scenario(docs[name], str(path)).spec
        for name, spec in specs.items():
            cfg = dataclasses.replace(spec.config, seed=spec.config.seed + shift)
            specs[name] = dataclasses.replace(spec, config=cfg)
        with rec.span("harness.code_fingerprint"):
            code_fingerprint()
        with rec.span("harness.cell_key"):
            for spec in specs.values():
                cell_key(spec)
        record["facts"] = {"expectations": len(docs)}

    cold: dict[str, dict] = {}
    for name, spec in specs.items():
        with log.operation(name) as record:
            stats = SweepStats()
            with rec.profiled_span("harness.run_cells_cold"):
                (payload,) = run_cells([spec], jobs=1, stats=stats, **dirs)
            cold[name] = payload
            record["digest"] = payload["digest"]
            verdicts = {golden_status(g, name, payload["digest"]) for g in golden_files}
            record["facts"] = {
                # the only tuple count a sweep payload carries: probe-stage
                # tuples delivered inside the measured window
                "tuples": payload["throughput"],
                **payload["kernel"],
                "rounds_completed": payload["rounds_completed"],
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "goldens_checked": int(bool(verdicts & {"ok", "MISMATCH"})),
                "goldens_matched": int("ok" in verdicts),
            }
            if "MISMATCH" in verdicts:
                record["checks"].append("digest differs from the committed golden")
            if name in docs:
                unmet = check_expectations(docs[name], payload)
                record["checks"].extend(unmet)
                record["facts"]["expectations_met"] = int(not unmet)

    with log.operation("warm-replay") as record:
        stats = SweepStats()
        with rec.span("harness.run_cells_warm"):
            warm = run_cells(list(specs.values()), jobs=1, stats=stats, **dirs)
        record["facts"] = {"cache_hits": stats.cache_hits, "cache_misses": stats.cache_misses}
        if warm != list(cold.values()):
            record["checks"].append("warm payloads differ from cold payloads")
        if (stats.cache_hits, stats.cache_misses) != (len(specs), 0):
            record["checks"].append(f"warm pass missed the cache: {stats}")


# -- 6. synth_chain_4k ---------------------------------------------------------

def chain_topology(replicas: int) -> dict:
    """``benchmarks/bench_kernel_scaling.py``'s aligned chain S->W->A->K."""
    return {
        "stages": [
            {"name": "S", "kind": "source", "replicas": replicas,
             "count": CHAIN_TUPLES_PER_SOURCE, "interval": 0.005, "size": 4096},
            {"name": "W", "kind": "map", "replicas": replicas, "size": 4096},
            {"name": "A", "kind": "map", "replicas": replicas, "size": 4096},
            {"name": "K", "kind": "sink", "replicas": replicas},
        ],
        "edges": [
            {"src": "S", "dst": "W", "pairing": "aligned"},
            {"src": "W", "dst": "A", "pairing": "aligned"},
            {"src": "A", "dst": "K", "pairing": "aligned"},
        ],
    }


def synth_chain_4k(log: PassLog, seed: int, size: Size, out_dir: Path) -> None:
    replicas = size.chain_replicas
    op = Op(
        f"synth/chain-{4 * replicas}",
        ExperimentConfig(
            app="synth", scheme="none", window=CHAIN_UNTIL, warmup=0.0, seed=seed,
            workers=max(4, replicas // 4), spares=2, racks=4,
            app_params={"topology": chain_topology(replicas)},
        ),
    )
    want = 3 * CHAIN_TUPLES_PER_SOURCE * replicas  # W + A + K, full drain

    def check(_op: Op, facts: dict) -> list[str]:
        if facts["tuples"] != want:
            return [f"drained {facts['tuples']} tuples, expected {want}"]
        return []

    _run_ops(log, [op], check)


WORKLOADS = {
    "dataflow_steady": dataflow_steady,
    "checkpoint_rounds": checkpoint_rounds,
    "burst_recovery": burst_recovery,
    "observed_run": observed_run,
    "sweep_goldens": sweep_goldens,
    "synth_chain_4k": synth_chain_4k,
}


# -- traced-pass extras: on/off runs --------------------------------------------
# Made only by the traced pass, beside the workload they explain.  The
# variants run round-robin so that host drift falls on all of them alike.

def _run_seconds(op: Op) -> float:
    rec = SpanRecorder()
    run_op(rec, op)
    return total(rec.spans, "simulation.run")


def _alternated(variants: dict[str, Op], rounds: int = 3) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(rounds):
        for name, op in variants.items():
            samples[name].append(_run_seconds(op))
    return samples


def _ratio(top: list[float], base: list[float]) -> dict:
    """Median ``top`` over median ``base``, with the base and the wider
    of the two relative ranges; unresolved when that exceeds the effect."""
    value = statistics.median(top) / statistics.median(base)
    spread = max((max(xs) - min(xs)) / statistics.median(xs) for xs in (top, base))
    return {
        "value": value,
        "base_s": statistics.median(base),
        "spread": spread,
        "unresolved": spread > abs(value - 1.0),
    }


def observation_overheads(seed: int, size: Size) -> dict[str, dict]:
    """Host cost of the tracer, the telemetry registry and the monitor,
    each as ``simulation.run`` seconds with it on over seconds without."""
    runs = _alternated({
        "off": observed_op(seed, size, trace=False, telemetry=False, monitor=False),
        "trace": observed_op(seed, size, telemetry=False, monitor=False),
        "telemetry": observed_op(seed, size, trace=False, monitor=False),
        "trace+telemetry": observed_op(seed, size, monitor=False),
        "monitor": observed_op(seed, size),
    })
    return {
        "observability.trace_overhead_ratio": _ratio(runs["trace"], runs["off"]),
        "telemetry.overhead_ratio": _ratio(runs["telemetry"], runs["off"]),
        "monitor.overhead_ratio": _ratio(runs["monitor"], runs["trace+telemetry"]),
    }


def scheme_overhead(seed: int, size: Size, scheme_run_seconds: list[float]) -> dict[str, dict]:
    """Mean ``simulation.run`` seconds of the checkpointing runs over
    the same application's seconds with no scheme attached."""
    base = _alternated({"none": Op("bcp/none", config_for(size, seed, app="bcp", scheme="none"))})
    mean = statistics.fmean(scheme_run_seconds)
    return {"core.scheme_host_overhead_ratio": _ratio([mean], base["none"])}
