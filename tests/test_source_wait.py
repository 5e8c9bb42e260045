"""An emitting source waits out each tuple's delay in one wait.

The wait is a park with a deadline: it costs one event per tuple, and a
scheme with safe-point work for the source (an MS checkpoint command, a
baseline periodic checkpoint) cuts it short, so the checkpoint starts at
that instant.  The rest of the delay is then waited out: a checkpoint
taken mid-wait delays the next tuple by its own length, and the source
never catches up."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import BaselineScheme, MSSrc, MSSrcAP
from repro.dsps import CheckpointScheme, DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.hau import HAURuntime
from repro.dsps.testing import make_chain_graph, make_diamond_graph
from repro.simulation import Environment

INTERVAL = 0.55  # over 2 × 0.25 s: a wait cut into 0.25 s slices pops 3 events a tuple
# 40 tuples: every source is still emitting when the runs below stop
STREAM = dict(source_count=40, interval=INTERVAL, window=5)


def deploy(scheme, graph_fn=make_chain_graph, trace=False, **stream):
    g, holder = graph_fn(**{**STREAM, **stream})
    env = Environment()
    if trace:
        env.enable_tracing()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=g),
        scheme,
        RuntimeConfig(seed=7, cluster=ClusterSpec(workers=6, spares=6, racks=2)),
    )
    rt.start()
    return env, rt, holder


@pytest.mark.parametrize("scheme_cls", [MSSrc, MSSrcAP])
@pytest.mark.parametrize("graph_fn", [make_chain_graph, make_diamond_graph])
def test_a_waiting_source_checkpoints_at_its_command(scheme_cls, graph_fn):
    scheme = scheme_cls(checkpoint_times=[1.0, 2.5])
    env, rt, _ = deploy(scheme, graph_fn, trace=True)
    env.run(until=6.0)
    logs = scheme.checkpoint_logs()
    assert [log.complete for log in logs] == [True, True]
    for log in logs:
        for src in rt.app.graph.sources():
            [delivered] = [
                e.t
                for e in env.trace.select(kind="checkpoint.command", subject=src)
                if e.get("round") == log.round_id
            ]
            [started] = [
                e.t
                for e in env.trace.select(kind="checkpoint.start", subject=src)
                if e.get("round") == log.round_id
            ]
            assert started == delivered == log.haus[src].start_at, (src, log.round_id)


def test_a_waiting_source_takes_its_periodic_checkpoint_when_asked(monkeypatch):
    asked: dict[str, list[float]] = {}
    request = HAURuntime.request_safepoint

    def recorded(hau):
        asked.setdefault(hau.hau_id, []).append(hau.env.now)
        request(hau)

    monkeypatch.setattr(HAURuntime, "request_safepoint", recorded)
    scheme = BaselineScheme(checkpoint_period=1.0)
    env, rt, _ = deploy(scheme)
    env.run(until=8.5)
    starts = [
        log.haus["src"].start_at
        for _counter, log in sorted(scheme.record.logs.items())
        if "src" in log.haus
    ]
    assert len(asked["src"]) >= 7
    assert starts == asked["src"]  # each at the instant its timer asked for it


def test_a_source_pops_one_event_per_tuple():
    """Under scheme ``none``, with the source's emissions going nowhere,
    all a run pops after the first instant is the source's waits."""
    env, rt, _ = deploy(CheckpointScheme(), source_count=10)
    rt.haus["src"].out_channels.clear()  # emit() skips an edge with no channel
    env.run(until=0.0)
    popped = env.events_popped
    env.run()
    assert rt.haus["src"].source_operator.emitted_count == 10
    assert env.events_popped - popped == 10
    assert env.now == pytest.approx(10 * INTERVAL)


class TimedMSSrc(MSSrc):
    """MS-src that records the span of each source checkpoint it runs and
    the instant each source wait ends (the tuple's preservation begins)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spans: list[tuple[float, float]] = []
        self.waits_ended: list[float] = []

    def maybe_checkpoint(self, hau):
        work = super().maybe_checkpoint(hau)
        return work if work is None else self._timed(work)

    def _timed(self, work):
        env = self.runtime.env
        began = env.now
        yield from work
        self.spans.append((began, env.now))

    def on_source_emit(self, hau, tup):
        self.waits_ended.append(hau.env.now)
        return super().on_source_emit(hau, tup)


def test_a_mid_wait_checkpoint_delays_the_next_tuple_by_its_length(monkeypatch):
    """No catch-up: a synchronous source checkpoint of length D taken
    during a wait that began at w ends that wait at w + delay + D."""
    waits_began = []
    emit = HAURuntime.emit

    def recorded(hau, emit_spec, created_at, source, *rest):
        work = emit(hau, emit_spec, created_at, source, *rest)
        if hau.is_source and not rest:
            assert work is None  # accepted at once: the next wait begins now
            waits_began.append(hau.env.now)
        return work

    monkeypatch.setattr(HAURuntime, "emit", recorded)
    scheme = TimedMSSrc(checkpoint_times=[1.0, 2.5])
    env, _, _ = deploy(scheme)
    env.run(until=6.0)
    assert len(scheme.spans) == 2
    for began, ended in scheme.spans:
        wait_start = max(t for t in waits_began if t <= began)
        wait_end = min(t for t in scheme.waits_ended if t >= ended)
        assert wait_end == pytest.approx(wait_start + INTERVAL + (ended - began), abs=1e-9)
