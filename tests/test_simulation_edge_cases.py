"""Edge cases of the simulation kernel not covered by the main suites."""

import pytest

from repro.simulation import Environment, Interrupt, SimulationError


def test_interrupt_carries_cause_object():
    env = Environment()
    seen = {}

    def victim():
        try:
            yield env.timeout(10.0)
        except Interrupt as intr:
            seen["cause"] = intr.cause

    p = env.process(victim())

    def killer():
        yield env.timeout(1.0)
        p.interrupt({"reason": "rack", "id": 3})

    env.process(killer())
    env.run()
    assert seen["cause"] == {"reason": "rack", "id": 3}


def test_zero_delay_timeout_fires_same_instant_in_order():
    env = Environment()
    order = []

    def a():
        yield env.timeout(0.0)
        order.append("a")

    def b():
        yield env.timeout(0.0)
        order.append("b")

    env.process(a())
    env.process(b())
    env.run()
    assert order == ["a", "b"]
    assert env.now == 0.0


def test_process_can_wait_on_same_event_twice_pattern():
    """Yielding an already-flushed event returns its value again."""
    env = Environment()
    ev = env.event()
    results = []

    def proc():
        got1 = yield ev
        yield env.timeout(1.0)
        got2 = yield ev  # long settled and flushed
        results.append((got1, got2))

    env.process(proc())

    def firer():
        yield env.timeout(0.5)
        ev.succeed("v")

    env.process(firer())
    env.run()
    assert results == [("v", "v")]


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        ev.fail("not-an-exception")


def test_run_until_event_with_no_schedule_raises():
    env = Environment()
    pending = env.event()
    with pytest.raises(SimulationError, match="exhausted"):
        env.run(until=pending)


def test_run_until_infinity_drains_and_leaves_the_clock_at_the_last_event():
    env = Environment()
    env.timeout(1.0)
    env.run(until=float("inf"))
    assert env.now == 1.0
    env.timeout(2.0)
    assert env.peek() == 3.0
    with pytest.raises(SimulationError):
        env.run(until=float("nan"))


def test_nested_interrupt_of_inner_process():
    """Interrupting an inner process fails the outer's wait cleanly."""
    env = Environment()

    def inner():
        yield env.timeout(100.0)

    def outer():
        child = env.process(inner())

        def killer():
            yield env.timeout(1.0)
            child.interrupt("stop")

        env.process(killer())
        result = yield child  # inner swallows the interrupt, finishes None
        return ("done", result, env.now)

    p = env.process(outer())
    env.run(until=p)
    assert p.value == ("done", None, 1.0)
