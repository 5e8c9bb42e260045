"""live == fold: what a scheme holds is what its trace folds to.

The run record (``repro.metrics.breakdown.RunRecord``) is written by one
function, ``RunRecord.apply``, which has two callers: a live scheme's
``transition()`` and ``build_timeline``'s fold over the trace.  So on
every pinned cell (``repro.scenarios.goldens.pinned_cells``: the six
canonical digest cases and the seven example scenarios) every field of
every ``CheckpointLog`` / ``RecoveryBreakdown`` the scheme holds must
equal the one the trace folds to, from the live tracer and from the
JSONL file alike.  On the recorded build each cell's digest must also
equal its pin: this is the tier-1 run of the pin gate.  A scheme that stamps a transition
without emitting it, or emits one without stamping it, breaks exactly
this; two planted ones prove the check bites.

This is the first brick of the trace oracle (ROADMAP item 6): with it a
committed trace is as good a witness of a run's rounds and recoveries as
the scheme object that produced it.
"""

import dataclasses

import pytest

from repro.cluster import ClusterSpec
from repro.core import MeteorShowerBase, MSSrc
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import make_chain_graph
from repro.harness.digest import canonical_cases, result_digest
from repro.harness.experiment import run_experiment
from repro.harness.sweep import run_spec
from repro.observability import build_timeline, read_jsonl, write_jsonl
from repro.observability.timeline import fold_record
from repro.scenarios.goldens import pin_files, pinned_cells
from repro.simulation import Environment
from tests import pins

PINNED = pinned_cells()
PIN_FILE = {name: path for path, names in pin_files(list(PINNED)).items() for name in names}


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


def latest_commits(record):
    """Each HAU's latest commit in ``record``, as (round, storage version)."""
    return {h: (bd.round_id, bd.version) for h, bd in record.last_commit.items()}


def differences(scheme, source):
    """Every disagreement between ``scheme.record`` and the fold of
    ``source`` (a tracer or events); [] when they agree."""
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
    # the breakdowns themselves are compared above; here, which one is
    # each HAU's latest commit, and the aware rounds' reasons
    folded = fold_record(timeline.events)
    for name, held, seen in (
        ("last_commit", latest_commits(record), latest_commits(folded)),
        ("decisions", record.decisions, folded.decisions),
    ):
        if held != seen:
            out.append(f"{name}: live {held!r} != fold {seen!r}")
    return out


@pytest.mark.parametrize("name", list(PINNED))
def test_live_record_equals_trace_fold(name, tmp_path):
    result = run_spec(PINNED[name])
    assert differences(result.scheme, result.tracer) == []
    # ... and the trace file is as good a witness as the live tracer
    path = tmp_path / "run.trace.jsonl"
    write_jsonl(result.tracer, str(path))
    events = read_jsonl(str(path))
    assert differences(result.scheme, events) == []
    # the MRC a rollback would restore, from the trace alone (a baseline
    # counter is no application round: nothing to compare)
    if isinstance(result.scheme, MeteorShowerBase):
        mrc = result.scheme.record.last_complete_round()
        assert fold_record(result.tracer.events).last_complete_round() == mrc
        assert fold_record(events).last_complete_round() == mrc
    # the cells between them exercise both record types
    record = result.scheme.record
    if result.config.scheme != "none":
        assert record.logs
    if result.config.enable_recovery and result.config.scheme != "baseline":
        assert any(rec.complete for rec in record.recoveries)
    pins.check(name, result_digest(result), PIN_FILE[name])


def test_source_command_is_the_control_arrival():
    """The disagreement this suite found: an ``ms-src`` source learns of
    the round when the control message arrives, not at the safe point
    where its checkpoint begins.  A source waiting between tuples is
    woken by the command, so the two are now the same instant and its
    token collection takes no time at all."""
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
        assert bd.command_at == bd.tokens_done_at == bd.start_at
        assert bd.token_collection == 0.0


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
