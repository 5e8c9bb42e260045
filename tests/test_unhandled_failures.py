"""The kernel's rule: a failed process nobody waits on stops the run.

``Process._resume`` turns an exception inside a generator into
``proc.fail(exc)``; if nothing consumes that failure (no waiting
process, no condition or callback on it, not the ``until`` of the run),
the pop of the process's own event raises out of ``env.run`` /
``env.step`` naming the process and the instant.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.core import MSSrcAP
from repro.core.recovery import GlobalRecovery
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import WindowSum, make_chain_graph
from repro.failures.injector import FailureInjector, FailurePlan, PlannedFailure
from repro.simulation import Environment, SimulationError


def _planted(*_args, **_kwargs):
    raise RuntimeError("planted")


def _planted_generator(*_args, **_kwargs):
    raise RuntimeError("planted")
    yield  # pragma: no cover - makes this a generator, as GlobalRecovery.run is


@pytest.mark.parametrize(
    "owner, method, plant, label",
    [
        (MSSrcAP, "on_source_emit", _planted, r"w\d+:src\.src"),  # a scheme hook
        (WindowSum, "on_tuple", _planted, r"w\d+:agg\.main"),  # an operator
        (FailureInjector, "_inject_node", _planted, "failure-injector"),
        (GlobalRecovery, "run", _planted_generator, r"storage:ms-src\+ap\.watch"),
    ],
)
def test_a_raise_in_any_unwatched_process_stops_the_run(monkeypatch, owner, method, plant, label):
    monkeypatch.setattr(owner, method, plant)
    graph, _ = make_chain_graph()
    env = Environment()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=graph),
        MSSrcAP(checkpoint_times=[1.0], enable_recovery=True),
        RuntimeConfig(seed=7, cluster=ClusterSpec(workers=4, spares=3, racks=2)),
    )
    rt.start()
    victim = rt.haus["sink"].node.node_id
    FailureInjector(env, rt.dc, FailurePlan([PlannedFailure(at=2.0, kind="node", target=victim)])).start()
    with pytest.raises(SimulationError, match=rf"process '{label}' failed at t=\d.*planted") as failure:
        env.run(until=20.0)
    assert isinstance(failure.value.__cause__, RuntimeError)
    assert env.now < 20.0  # stopped where it happened, not at the horizon


def test_step_raises_it_too_and_the_run_can_be_inspected_afterwards():
    env = Environment()

    def doomed():
        yield env.timeout(1.0)
        raise KeyError("k")

    proc = env.process(doomed(), label="doomed")
    with pytest.raises(SimulationError, match=r"process 'doomed' failed at t=1\.0"):
        while True:
            env.step()
    assert not proc.ok and isinstance(proc.value, KeyError)
    assert env.now == 1.0 and env.peek() == float("inf")


def _failing(env):
    yield env.timeout(1.0)
    raise ValueError("boom")


def test_a_waited_on_failure_is_the_waiters_business():
    env = Environment()
    seen = []

    def parent():
        try:
            yield env.process(_failing(env), label="child")
        except ValueError as exc:
            seen.append(str(exc))

    env.process(parent())
    env.run()
    assert seen == ["boom"]


def test_a_failure_inside_a_condition_is_the_conditions_business():
    env = Environment()
    seen = []

    def parent():
        try:
            yield env.any_of([env.process(_failing(env), label="child"), env.timeout(5.0)])
        except ValueError as exc:
            seen.append(str(exc))

    env.process(parent())
    env.run()
    assert seen == ["boom"]


def test_a_waiter_that_lets_the_failure_through_fails_in_its_turn():
    """Consuming is per process: the child's failure is delivered, the
    parent does not handle it, and it is the parent nobody waits on."""
    env = Environment()

    def parent():
        yield env.process(_failing(env), label="child")

    env.process(parent(), label="parent")
    with pytest.raises(SimulationError, match=r"process 'parent' failed at t=1\.0.*boom"):
        env.run()


def test_the_until_of_a_run_raises_the_original_and_nothing_else():
    env = Environment()
    proc = env.process(_failing(env), label="child")
    with pytest.raises(ValueError, match="boom"):
        env.run(until=proc)
    env.run()  # the failure was consumed: nothing is raised again


def test_an_uncaught_interrupt_still_ends_a_process_quietly():
    env = Environment()

    def sleeper():
        yield env.timeout(10.0)

    proc = env.process(sleeper(), label="sleeper")

    def killer():
        yield env.timeout(1.0)
        proc.interrupt("node down")

    env.process(killer())
    env.run()
    assert proc.ok and proc.value is None and env.now == 10.0


def test_a_failed_plain_event_nobody_waits_on_is_not_a_process_dying():
    """The rule is about processes — a request failed for a waiter that
    was interrupted away (a closed channel's blocked sender) is routine."""
    env = Environment()
    env.event().fail(RuntimeError("nobody listens"))
    env.run()
    assert env.events_popped == 1

