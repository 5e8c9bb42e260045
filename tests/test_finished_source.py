"""A source whose generator is exhausted parks until its scheme wakes it.

It costs no event while parked (a run with no horizon ends with the
stream), and a scheme with safe-point work for it — an MS checkpoint
command, a baseline periodic checkpoint — wakes it at that instant.
A source waiting out a tuple's delay is parked too
(``tests/test_source_wait.py``); rolling one back is checked here, beside
the finished case."""

import pytest

from repro.cluster import ClusterSpec
from repro.cluster.channel import Channel
from repro.core import BaselineScheme, MSSrc, MSSrcAP
from repro.dsps import CheckpointScheme, DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.hau import HAURuntime
from repro.dsps.testing import make_chain_graph, make_diamond_graph
from repro.simulation import Environment

# 10 tuples 0.05 s apart: every source has finished by t = 0.5
FINITE = dict(source_count=10, interval=0.05, window=5)


def deploy(scheme, graph_fn=make_chain_graph, seed=7, stream=FINITE):
    g, holder = graph_fn(**stream)
    env = Environment()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=g),
        scheme,
        RuntimeConfig(seed=seed, cluster=ClusterSpec(workers=6, spares=6, racks=2)),
    )
    rt.start()
    return env, rt, holder


def run_dry(env, budget=100_000):
    """``env.run()`` with no horizon, stepped under a budget so that a
    schedule that never empties fails instead of hanging."""
    for _ in range(budget):
        if env.peek() == float("inf"):
            return env.run()
        env.step()
    raise AssertionError(f"the schedule is not empty after {budget} events (t={env.now})")


def test_a_finished_stream_under_no_scheme_ends_the_run(monkeypatch):
    delivered = []
    deliver = Channel._deliver

    def watched(chan):
        delivered.append(chan.env.now)
        deliver(chan)

    monkeypatch.setattr(Channel, "_deliver", watched)
    env, rt, holder = deploy(CheckpointScheme())
    run_dry(env)
    assert holder["sink"].received_count == FINITE["source_count"] // FINITE["window"]
    # the clock stops at the last delivery, plus the sink's 20 us to process it
    assert env.now == pytest.approx(max(delivered), abs=1e-4)
    src = rt.haus["src"]
    assert src._parked is src._proc and not src._proc.triggered  # parked, costing nothing


@pytest.mark.parametrize("scheme_cls", [MSSrc, MSSrcAP])
@pytest.mark.parametrize("graph_fn", [make_chain_graph, make_diamond_graph])
def test_a_finished_source_checkpoints_at_its_command(scheme_cls, graph_fn):
    scheme = scheme_cls(checkpoint_times=[1.0, 2.5])
    env, rt, _ = deploy(scheme, graph_fn)
    env.run(until=6.0)
    logs = scheme.checkpoint_logs()
    assert [log.complete for log in logs] == [True, True]
    sources = rt.app.graph.sources()
    for log in logs:
        for src in sources:
            bd = log.haus[src]
            assert bd.command_at is not None and bd.start_at == bd.command_at, (src, bd)


def test_a_finished_source_takes_its_periodic_checkpoint_when_asked(monkeypatch):
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
    finished = [t for t in asked["src"] if t > 0.5]
    assert len(finished) >= 7
    assert set(finished) <= set(starts)  # each at the instant it was asked for


# 12 tuples 0.55 s apart: at t = 1.8 the source is waiting out a delay
WAITING = dict(source_count=12, interval=0.55, window=5)


def roll_back_a_parked_source(stream, until):
    """Fail ``mid`` while the source is parked; the rollback must end the
    source's process quietly and leave the sink's log exactly-once."""
    clean_env, _, clean = deploy(MSSrc(checkpoint_times=[1.0]), stream=stream)
    clean_env.run(until=until)
    scheme = MSSrc(checkpoint_times=[1.0], enable_recovery=True)
    env, rt, holder = deploy(scheme, stream=stream)
    env.run(until=1.8)
    old = rt.haus["src"]
    proc = old._proc
    assert old._parked is proc  # parked (finished, or mid-wait) when the failure hits
    rt.haus["mid"].node.fail("injected")
    env.run(until=until)  # a SimulationError would surface here
    assert len(scheme.recoveries) == 1
    assert proc.triggered and old._parked is None and old._proc is None
    assert rt.haus["src"] is not old
    assert len(clean["sink"].payload_log) == stream["source_count"] // stream["window"]
    assert holder["sink"].payload_log == clean["sink"].payload_log


def test_rolling_back_a_parked_source_ends_its_process():
    roll_back_a_parked_source(FINITE, until=8.0)


def test_rolling_back_a_waiting_source_ends_its_process():
    roll_back_a_parked_source(WAITING, until=20.0)
