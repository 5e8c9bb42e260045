"""live == fold: what a scheme holds is what its trace folds to.

The run record (``repro.metrics.breakdown.RunRecord``) is written by one
function, ``RunRecord.apply``, which has two callers: a live scheme's
``transition()`` and ``build_timeline``'s fold over the trace.  So on
every pinned cell — the four canonical digest cases and the seven example
scenarios — every field of every ``CheckpointLog`` / ``RecoveryBreakdown``
the scheme holds must equal the one the trace folds to, from the live
tracer and from the JSONL file alike.  A scheme that stamps a transition
without emitting it, or emits one without stamping it, breaks exactly
this; two planted ones prove the check bites.

This is the first brick of the trace oracle (ROADMAP item 6): with it a
committed trace is as good a witness of a run's rounds and recoveries as
the scheme object that produced it.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.cluster import ClusterSpec
from repro.core import MSSrc
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import make_chain_graph
from repro.harness.digest import canonical_cases
from repro.harness.experiment import run_experiment
from repro.harness.sweep import run_spec
from repro.observability import read_jsonl, write_jsonl
from repro.profiling import build_timeline
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.loader import load_path, scenario_paths
from repro.simulation import Environment

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


def field_differences(what, live, folded):
    """``what.field: live != folded`` for every compared dataclass field
    (nested rows are reported by their own call)."""
    if live is None or folded is None:
        return [f"{what}: only the {'fold' if live is None else 'live record'} has it"]
    return [
        f"{what}.{f.name}: live {getattr(live, f.name)!r} != fold {getattr(folded, f.name)!r}"
        for f in dataclasses.fields(live)
        if f.compare and f.name != "haus" and getattr(live, f.name) != getattr(folded, f.name)
    ]


def differences(scheme, source):
    """Every disagreement between ``scheme.record`` and the fold of
    ``source`` (a tracer, events, or JSONL dicts); [] when they agree."""
    record = scheme.record
    timeline = build_timeline(source)
    out = []
    folded_logs = {log.round_id: log for log in timeline.rounds}
    for round_id in sorted(set(record.logs) | set(folded_logs)):
        live, folded = record.logs.get(round_id), folded_logs.get(round_id)
        out += field_differences(f"round {round_id}", live, folded)
        if live is not None and folded is not None:
            for hau in sorted(set(live.haus) | set(folded.haus)):
                out += field_differences(
                    f"round {round_id} {hau}", live.haus.get(hau), folded.haus.get(hau)
                )
    if len(record.recoveries) != len(timeline.recoveries):
        out.append(
            f"recoveries: live {len(record.recoveries)} != fold {len(timeline.recoveries)}"
        )
    for i, (live, folded) in enumerate(zip(record.recoveries, timeline.recoveries)):
        out += field_differences(f"recovery {i}", live, folded)
        for hau in sorted(set(live.haus) | set(folded.haus)):
            out += field_differences(
                f"recovery {i} {hau}", live.haus.get(hau), folded.haus.get(hau)
            )
    # and, wholesale, so a field this walk forgot cannot hide
    if not out and (record.logs != folded_logs or record.recoveries != timeline.recoveries):
        out.append("records differ in a field the walk above does not name")
    for kind, held in (
        ("baseline.recover.done", record.recovered),
        ("baseline.unrecoverable", record.unrecoverable),
    ):
        seen = [(e.t, e.subject) for e in timeline.events if e.kind == kind]
        if held != seen:
            out.append(f"{kind}: live {held!r} != trace {seen!r}")
    return out


def pinned_cells():
    for name, (cfg, kwargs) in canonical_cases().items():
        yield pytest.param(lambda c=cfg, k=kwargs: run_experiment(c, trace=True, **k), id=name)
    for path in scenario_paths(EXAMPLES):
        spec = compile_scenario(load_path(path), source=str(path)).spec
        yield pytest.param(lambda s=spec: run_spec(s), id=path.stem)


@pytest.mark.parametrize("run", pinned_cells())
def test_live_record_equals_trace_fold(run, tmp_path):
    result = run()
    assert differences(result.scheme, result.tracer) == []
    # ... and the trace file is as good a witness as the live tracer
    path = tmp_path / "run.trace.jsonl"
    write_jsonl(result.tracer, str(path))
    assert differences(result.scheme, read_jsonl(str(path))) == []
    # the cells between them exercise both record types
    record = result.scheme.record
    if result.config.scheme != "none":
        assert record.logs
    if result.config.enable_recovery and result.config.scheme != "baseline":
        assert any(rec.complete for rec in record.recoveries)


def test_source_command_is_the_control_arrival():
    """The disagreement this suite found: an ``ms-src`` source learned of
    the round when the control message arrived, not at the safe point
    where its checkpoint began (which reported 0 s of token collection
    for a source that did wait)."""
    cfg, kwargs = canonical_cases()["bcp/ms-src@1"]
    result = run_experiment(cfg, trace=True, **kwargs)
    [log] = result.checkpoint_logs
    sources = [log.haus[s] for s in result.runtime.app.graph.sources()]
    assert sources
    for bd in sources:
        command = [
            e.t for e in result.tracer.select(kind="checkpoint.command", subject=bd.hau_id)
        ]
        assert [bd.command_at] == command and bd.command_via == "control"
        assert bd.command_at < bd.tokens_done_at == bd.start_at
        assert bd.token_collection > 0.0


# -- planted disagreements -----------------------------------------------------


class StampsWithoutEmitting(MSSrc):
    def transition(self, kind, subject, **data):
        if kind == "checkpoint.tokens.done":
            return self.record.apply(kind, self.runtime.env.now, subject, data)
        return super().transition(kind, subject, **data)


class EmitsWithoutStamping(MSSrc):
    def transition(self, kind, subject, **data):
        if kind == "checkpoint.write.start":
            env = self.runtime.env
            env.trace.emit(kind, t=env.now, subject=subject, **data)
            return None
        return super().transition(kind, subject, **data)


def run_chain(scheme):
    graph, _ = make_chain_graph()
    env = Environment()
    env.enable_tracing()
    runtime = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=graph),
        scheme,
        RuntimeConfig(seed=7, cluster=ClusterSpec(workers=6, spares=6, racks=2)),
    )
    runtime.start()
    env.run(until=10.0)
    return env.trace


def test_honest_scheme_on_the_chain_agrees():
    scheme = MSSrc(checkpoint_times=[1.0])
    assert differences(scheme, run_chain(scheme)) == []


@pytest.mark.parametrize(
    "planted, field",
    [(StampsWithoutEmitting, "tokens_done_at"), (EmitsWithoutStamping, "write_start_at")],
)
def test_planted_disagreement_is_caught(planted, field):
    scheme = planted(checkpoint_times=[1.0])
    found = differences(scheme, run_chain(scheme))
    assert found and all(f".{field}:" in line or ".state_bytes:" in line for line in found)
    assert len([line for line in found if f".{field}:" in line]) == len(scheme.runtime.haus)
