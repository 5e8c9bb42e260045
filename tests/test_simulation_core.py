"""Unit tests for the discrete-event kernel (repro.simulation.core)."""

import gc
import weakref

import pytest

from repro.simulation import Environment, Interrupt, SimulationError
from repro.simulation.core import Event, Timeout, frozen_heap


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 5.0
    assert env.now == 5.0


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


# A delay that is not >= 0 is refused where it is passed.  NaN is the
# dangerous one: `nan < 0` is False, and a NaN key at the heap root made
# `run(until=...)` return at once with every pending event dropped.
_BAD_DELAYS = [float("nan"), -1.0, float("-inf")]


def _recycled_timeout_env():
    env = Environment()
    env.timeout(0.0)
    env.step()  # the Timeout pool now serves the next call
    return env


@pytest.mark.parametrize("bad", _BAD_DELAYS)
@pytest.mark.parametrize(
    "schedule",
    [
        lambda env, d: Timeout(env, d),
        lambda env, d: env.timeout(d),
        lambda env, d: _recycled_timeout_env().timeout(d),
        lambda env, d: env._schedule(Event(env), delay=d),
        lambda env, d: env.event().succeed(delay=d),
        lambda env, d: env.event().fail(RuntimeError("x"), delay=d),
        lambda env, d: env.schedule_at(Event(env), d),  # an instant, not a delay
    ],
    ids=["Timeout", "timeout-fresh", "timeout-pooled", "_schedule", "succeed", "fail",
         "schedule_at"],
)
def test_delay_that_is_not_nonnegative_is_rejected_at_the_call(schedule, bad):
    env = Environment()
    with pytest.raises(SimulationError):
        schedule(env, bad)
    assert env.peek() == float("inf")  # and nothing was scheduled


def test_rejected_delay_leaves_the_event_pending():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        ev.succeed("v", delay=float("nan"))
    assert not ev.triggered
    ev.succeed("v")  # still settleable
    assert env.run(until=ev) == "v"


def test_nan_timeout_cannot_drop_the_pending_events():
    env = Environment()
    resumed = []

    def waiter(d):
        yield env.timeout(d)
        resumed.append(d)

    for d in (1.0, 2.0, 3.0):
        env.process(waiter(d))
    with pytest.raises(SimulationError):
        env.timeout(float("nan"))
    env.run(until=10.0)
    assert resumed == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("bad", [float("nan"), 4.0, float("-inf")])
def test_run_until_a_horizon_that_is_not_ahead_is_rejected(bad):
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=bad)
    assert env.now == 5.0  # the clock did not move (NaN used to stick)


def test_run_until_time_stops_exactly():
    env = Environment()
    seen = []

    def proc():
        while True:
            yield env.timeout(1.0)
            seen.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert seen == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"


def test_run_until_failed_event_raises():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise ValueError("boom")

    p = env.process(proc())
    with pytest.raises(ValueError, match="boom"):
        env.run(until=p)


def test_processes_interleave_in_time_order():
    env = Environment()
    trace = []

    def proc(name, delay):
        yield env.timeout(delay)
        trace.append((env.now, name))

    env.process(proc("slow", 3.0))
    env.process(proc("fast", 1.0))
    env.process(proc("mid", 2.0))
    env.run()
    assert trace == [(1.0, "fast"), (2.0, "mid"), (3.0, "slow")]


def test_simultaneous_events_fire_in_creation_order():
    env = Environment()
    trace = []

    def proc(name):
        yield env.timeout(1.0)
        trace.append(name)

    for name in "abcde":
        env.process(proc(name))
    env.run()
    assert trace == list("abcde")


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_double_settle_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_process_receives_event_value():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield ev))

    def firer():
        yield env.timeout(1.0)
        ev.succeed("payload")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == ["payload"]


def test_process_sees_failed_event_as_exception():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def firer():
        yield env.timeout(1.0)
        ev.fail(RuntimeError("bad"))

    env.process(waiter())
    env.process(firer())
    env.run()
    assert caught == ["bad"]


def test_yield_already_triggered_event_resumes():
    env = Environment()
    trace = []

    def proc():
        ev = env.event()
        ev.succeed("early")
        got = yield ev
        trace.append(got)
        # also a long-settled timeout
        t = env.timeout(0.0, value="t")
        yield env.timeout(1.0)
        got2 = yield t
        trace.append(got2)

    env.process(proc())
    env.run()
    assert trace == ["early", "t"]


def test_yield_non_event_fails_process():
    env = Environment()

    def proc():
        yield 42

    p = env.process(proc())
    with pytest.raises(SimulationError):
        env.run(until=p)


def test_interrupt_while_waiting():
    env = Environment()
    trace = []

    def sleeper():
        try:
            yield env.timeout(100.0)
            trace.append("finished")
        except Interrupt as intr:
            trace.append(("interrupted", env.now, intr.cause))

    def killer(victim):
        yield env.timeout(3.0)
        victim.interrupt("node-down")

    victim = env.process(sleeper())
    env.process(killer(victim))
    env.run()
    assert trace == [("interrupted", 3.0, "node-down")]


def test_interrupt_finished_process_is_noop():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run()
    p.interrupt("late")  # must not raise
    assert p.triggered


def test_uncaught_interrupt_terminates_process_quietly():
    env = Environment()

    def sleeper():
        yield env.timeout(100.0)

    def killer(victim):
        yield env.timeout(1.0)
        victim.interrupt()

    p = env.process(sleeper())
    env.process(killer(p))
    env.run()
    assert p.triggered and p.ok


def test_interrupted_process_does_not_wake_twice():
    env = Environment()
    trace = []

    def sleeper():
        try:
            yield env.timeout(5.0)
            trace.append("slept")
        except Interrupt:
            trace.append("intr")
            yield env.timeout(10.0)
            trace.append("after")

    def killer(victim):
        yield env.timeout(1.0)
        victim.interrupt()

    p = env.process(sleeper())
    env.process(killer(p))
    env.run()
    # The original 5s timeout must not resume the process at t=5.
    assert trace == ["intr", "after"]
    assert env.now == 11.0


def test_interrupted_process_does_not_wake_twice_with_an_unpark_pending():
    """An interrupt drops the unpark it finds pending: the process
    resumes once, with the Interrupt, and the dropped kick is still one
    pop (as the wake event it replaces fired with no waiter)."""
    env = Environment()
    trace = []

    def sleeper():
        try:
            yield env.parked
            trace.append("unparked")
        except Interrupt:
            trace.append("intr")
            yield env.timeout(10.0)
            trace.append("after")

    def killer(victim):
        yield env.timeout(1.0)
        env.unpark(victim)
        victim.interrupt()

    p = env.process(sleeper())
    env.process(killer(p))
    env.run()
    assert trace == ["intr", "after"]
    assert env.now == 11.0
    # boots 2, the killer's timeout, unpark, interrupt, the 10 s timeout, two ends
    assert env.events_popped == 8


def _wake_order(park):
    """One instant that wakes an idle process between two other
    zero-delay events: by an unpark, or by a wake event's ``succeed()``."""
    env = Environment()
    order = []
    wake = env.event()

    def sleeper():
        yield env.parked if park else wake
        order.append("woken")

    def noted(tag):
        ev = env.event()
        ev.add_callback(lambda _ev: order.append(tag))
        return ev

    p = env.process(sleeper())
    env.run(until=1.0)
    noted("before").succeed()
    if park:
        env.unpark(p)
    else:
        wake.succeed()
    noted("after").succeed()
    env.run()
    return order, env.events_popped


def test_a_parked_process_resumes_at_its_unparks_fifo_slot():
    """After what the instant already scheduled, before what it schedules
    later: exactly where ``succeed()`` puts a wake event, and one pop."""
    assert _wake_order(park=True) == _wake_order(park=False) == (["before", "woken", "after"], 5)


def test_parking_registers_nothing_on_the_marker():
    env = Environment()

    def idle():
        yield env.parked

    procs = [env.process(idle()) for _ in range(3)]
    env.run()
    assert env.parked._waiter is None and env.parked.callbacks == ()
    assert all(p._waiting_on is env.parked for p in procs)


def test_the_park_marker_is_only_yielded():
    """Settling or observing ``env.parked`` would release or strand every
    parked process at once; each way in raises instead."""
    env = Environment()
    for touch in (
        lambda: env.parked.succeed(),
        lambda: env.parked.fail(RuntimeError("x")),
        lambda: env.parked.add_callback(print),
        lambda: env.run(until=env.parked),
    ):
        with pytest.raises(SimulationError, match="only yielded"):
            touch()
    assert not env.parked.triggered and env.parked.callbacks == ()


def test_unparking_a_process_that_is_not_parked_is_a_no_op():
    env = Environment()
    woken = []

    def sleeper():
        yield env.timeout(1.0)
        woken.append(env.now)
        yield env.parked
        woken.append(env.now)

    p = env.process(sleeper())
    env.unpark(p)  # not started yet
    env.run(until=0.5)
    env.unpark(p)  # waiting on a timeout
    env.run(until=2.0)
    assert woken == [1.0]
    env.unpark(p)
    env.unpark(p)  # already unparked: its kick is pending
    env.run(until=3.0)
    assert woken == [1.0, 2.0] and not p.is_alive
    env.unpark(p)  # finished
    env.run()
    assert woken == [1.0, 2.0]


def test_a_park_with_a_deadline_resumes_at_the_deadline_or_its_unpark():
    """``yield env.timeout(d, env.parked)`` resumes at the deadline unless
    an unpark comes first; then it resumes at the unpark, and the stale
    timeout still pops at its deadline and resumes nobody."""
    env = Environment()
    woken: dict[str, list[float]] = {"waits": [], "woken": []}

    def waiter(tag):
        yield env.timeout(2.0, env.parked)
        woken[tag].append(env.now)
        yield env.timeout(5.0)  # a plain wait: the stale deadline must not end it
        woken[tag].append(env.now)

    p_waits = env.process(waiter("waits"))
    p_woken = env.process(waiter("woken"))
    env.run(until=0.5)
    env.unpark(p_woken)
    env.run(until=1.0)
    assert woken == {"waits": [], "woken": [0.5]}
    popped = env.events_popped
    env.run(until=2.0)
    # both deadlines popped at 2.0; only the waiter nobody woke resumed
    assert env.events_popped - popped == 2
    assert woken == {"waits": [2.0], "woken": [0.5]}
    env.run()
    assert woken == {"waits": [2.0, 7.0], "woken": [0.5, 5.5]}
    assert not p_waits.is_alive and not p_woken.is_alive


def test_an_interrupt_during_a_park_with_a_deadline_is_delivered_once():
    """An interrupt ends the wait once, with nothing left behind: the
    stale deadline resumes nobody, and the next park is unparked as
    usual (an unpark in the same instant as the interrupt is dropped)."""
    env = Environment()
    trace = []

    def sleeper():
        for _ in range(2):
            try:
                yield env.timeout(2.0, env.parked)
                trace.append(("resumed", env.now))
            except Interrupt as intr:
                trace.append((intr.cause, env.now))
        yield env.parked
        trace.append(("unparked", env.now))

    p = env.process(sleeper())
    env.run(until=0.5)
    env.unpark(p)
    p.interrupt("first")
    env.run(until=1.0)
    assert trace == [("first", 0.5)]
    env.unpark(p)  # the second deadline park, due at 2.5
    env.run(until=3.0)  # the first deadline popped at 2.0 with no waiter
    assert trace == [("first", 0.5), ("resumed", 1.0)]
    env.unpark(p)
    env.run()
    assert trace == [("first", 0.5), ("resumed", 1.0), ("unparked", 3.0)]
    assert not p.is_alive


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_run_backwards_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_nested_process_wait():
    env = Environment()

    def inner():
        yield env.timeout(2.0)
        return "inner-done"

    def outer():
        res = yield env.process(inner())
        return (env.now, res)

    p = env.process(outer())
    env.run(until=p)
    assert p.value == (2.0, "inner-done")


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise KeyError("k")

    def outer():
        try:
            yield env.process(bad())
        except KeyError:
            return "caught"

    p = env.process(outer())
    env.run(until=p)
    assert p.value == "caught"


def test_determinism_same_schedule_twice():
    def build():
        env = Environment()
        trace = []

        def proc(name, delays):
            for d in delays:
                yield env.timeout(d)
                trace.append((env.now, name))

        env.process(proc("a", [1.0, 1.0, 1.0]))
        env.process(proc("b", [0.5, 2.0]))
        env.process(proc("c", [1.5, 1.5]))
        env.run()
        return trace

    assert build() == build()


def _mixed_workload(run, stop_mid_instant=False):
    """Twenty tickers with distinct periods, cut off mid-flight at
    t=1.5 (p0..p14 finish, p15..p19 are still waiting), and a gate at
    t=0.2 that releases five same-instant waiters.
    ``stop_mid_instant`` first runs until
    the third waiter's mark fires, leaving the rest of the instant
    scheduled, and lets ``run`` pick it up from there."""
    env = Environment()
    done = []
    gate = env.event()
    marks = [env.event() for _ in range(5)]

    def ticker(label, delay, n):
        for _ in range(n):
            yield env.timeout(delay)
        done.append((env.now, label))

    def gated(i):
        yield gate
        marks[i].succeed()
        yield env.timeout(0.0)
        done.append((env.now, f"g{i}"))

    def opener():
        yield env.timeout(0.2)
        gate.succeed()

    for i in range(20):
        env.process(ticker(f"p{i}", 0.01 * (i + 1), 10), label=f"p{i}")
    for i in range(5):
        env.process(gated(i))
    env.process(opener())
    if stop_mid_instant:
        env.run(until=marks[2])
        assert env.now == 0.2 == env.peek()  # the instant is not over
        assert [label for _, label in done if label[0] == "g"] == ["g0", "g1"]
    run(env, 1.5)
    return done, env.kernel_stats(), env.now, env.peek()


def _step_until(env, horizon):
    """``run(until=horizon)`` spelt with ``step()``: one pop per call."""
    while env.peek() <= horizon:
        env.step()
    popped = env.events_popped
    env.run(until=horizon)  # nothing is left to pop: only moves the clock
    assert env.events_popped == popped


def test_every_way_of_driving_the_kernel_pops_the_same_events():
    """``run(<number>)`` and ``step()`` are two bounds on the kernel's one
    pop-and-fire body (``step`` is a budget of 1): same pops, same
    order, same free-list traffic — and a run that stopped mid-instant
    (``run(<event>)``, budget 1 per pop) is continued by either exactly
    where it stopped."""
    by_run = _mixed_workload(Environment.run)
    assert by_run == _mixed_workload(_step_until)
    assert by_run == _mixed_workload(Environment.run, stop_mid_instant=True)
    assert by_run == _mixed_workload(_step_until, stop_mid_instant=True)
    done, stats, now, nxt = by_run
    labels = [label for _, label in done]
    assert [x for x in labels if x[0] == "p"] == [f"p{i}" for i in range(15)]
    assert [x for x in labels if x[0] == "g"] == [f"g{i}" for i in range(5)]
    assert stats["events_popped"] > 0 and stats["pool_hits"] > 0
    assert now == 1.5 < nxt


def test_run_to_exhaustion_is_the_same_body_without_a_horizon():
    """``run()`` pops what ``step()`` would, leaves the clock at the last
    event and counts every pop once."""

    def build():
        env = Environment()
        for i in range(5):
            env.timeout(0.5 * i)
            env.event().succeed()
        return env

    ran, stepped = build(), build()
    ran.run()
    while stepped.peek() < float("inf"):
        stepped.step()
    assert ran.kernel_stats() == stepped.kernel_stats()
    assert ran.now == stepped.now == 2.0
    assert ran.kernel_stats()["events_popped"] == 10
    with pytest.raises(SimulationError, match="empty schedule"):
        stepped.step()


def test_peek_is_now_while_the_current_instant_has_entries():
    env = Environment()
    env.timeout(7.0)
    env.run(until=3.0)
    env.event().succeed()
    assert env.peek() == 3.0
    env.step()
    assert env.peek() == 7.0


# -- sole-waiter slot -----------------------------------------------------------


@pytest.mark.parametrize("waiter_first", [True, False])
def test_waiter_and_observer_fire_in_registration_order(waiter_first):
    env = Environment()
    order = []
    ev = env.event()

    def proc():
        yield ev
        order.append("process")

    def observe():
        ev.add_callback(lambda _e: order.append("observer"))

    if waiter_first:
        env.process(proc())
        env.step()  # boot: the process registers on ev
        observe()
    else:
        observe()
        env.process(proc())
    ev.succeed()
    env.run()
    expected = ["process", "observer"]
    assert order == (expected if waiter_first else expected[::-1])


def test_second_waiter_fires_after_the_first():
    env = Environment()
    order = []
    ev = env.event()

    def proc(tag):
        yield ev
        order.append(tag)

    for tag in "abc":
        env.process(proc(tag))
    env.run()
    assert ev._waiter is not None and len(ev.callbacks) == 2
    ev.succeed()
    env.run()
    assert order == ["a", "b", "c"]


def test_interrupting_the_sole_waiter_leaves_the_event_with_no_waiter():
    env = Environment()
    ev = env.event()
    woken = []

    def proc():
        try:
            yield ev
        except Interrupt:
            woken.append("interrupt")
            return
        woken.append("event")

    p = env.process(proc())
    env.run()
    assert ev._waiter is p and ev.callbacks is None
    p.interrupt()
    assert ev._waiter is None and ev.callbacks is None
    ev.succeed()
    env.run()
    assert woken == ["interrupt"]


# -- run-phase collector: frozen_heap --------------------------------------------


def test_frozen_heap_unfreezes_on_exit_and_on_error():
    assert gc.get_freeze_count() == 0
    with frozen_heap():
        assert gc.get_freeze_count() > 0
    assert gc.get_freeze_count() == 0

    with pytest.raises(RuntimeError), frozen_heap():
        raise RuntimeError("boom")
    assert gc.get_freeze_count() == 0


def test_frozen_heap_leaves_a_callers_freeze_alone():
    gc.freeze()
    try:
        with frozen_heap():
            assert gc.get_freeze_count() > 0
        assert gc.get_freeze_count() > 0  # the caller's freeze survives
    finally:
        gc.unfreeze()
    assert gc.get_freeze_count() == 0


def frozen_during(run):
    """Was the heap frozen while ``run(env, sentinel)`` drove a process?"""
    env = Environment()
    seen = []

    def probe():
        yield env.timeout(1.0)
        seen.append(gc.get_freeze_count() > 0)

    run(env, env.process(probe()))
    assert gc.get_freeze_count() == 0
    return seen


@pytest.mark.parametrize(
    "run",
    [
        lambda env, proc: env.run(until=2.0),
        lambda env, proc: env.run(until=proc),
        lambda env, proc: env.run(),
    ],
    ids=["horizon", "event", "exhaustion"],
)
def test_every_run_shape_freezes_the_heap(run):
    assert frozen_during(run) == [True]


class _Knot:
    """Half of a reference cycle: garbage only the collector can free."""


def dead_cycle():
    a, b = _Knot(), _Knot()
    a.peer, b.peer = b, a
    return weakref.ref(a)


def test_run_collects_young_garbage_but_not_the_prebuilt_heap():
    """What the freeze is for: cycles made during the run die during the
    run; what existed before it is not traversed (so not collected) until
    the run returns."""
    env = Environment()
    before = dead_cycle()  # garbage already, but older than the run
    alive = {}

    def proc():
        yield env.timeout(1.0)
        during = dead_cycle()
        gc.collect()
        alive["during"], alive["before"] = during() is not None, before() is not None

    env.process(proc())
    env.run(until=2.0)
    assert alive == {"during": False, "before": True}
    gc.collect()
    assert before() is None


def test_frozen_heap_gives_the_collector_its_pacing_back():
    """``gc.freeze()`` zeroes the pass counters; left zeroed, the next
    full collection never comes and a sweep's dead cells stay pinned run
    after run.  The middle and full counters come back at exit."""
    gc.disable()  # only the passes made below move the counters
    try:
        gc.collect()
        for _ in range(3):
            gc.collect(1)  # three middle passes towards the next full one
        for _ in range(2):
            gc.collect(0)
        assert gc.get_count()[1:] == (2, 3)
        with frozen_heap():
            assert gc.get_count()[1:] == (0, 0)  # what freeze() does
            gc.collect(0)  # the run's own young pass is kept on top
        assert gc.get_count()[1:] == (3, 3)
    finally:
        gc.enable()


def test_callback_added_during_the_flush_is_not_part_of_it():
    """An event's waiter and callbacks are detached before any of them
    runs: whoever registers on it mid-flush is too late, with or without
    a second registrant keeping a callback list alive."""
    env = Environment()
    ev = env.event()
    seen = []

    def first():
        yield ev
        ev.add_callback(lambda _e: seen.append("late"))

    def second():
        yield ev

    env.process(first())
    env.process(second())
    ev.succeed()
    env.run()
    assert seen == [] and ev.callbacks is not None


# -- schedule_at: a caller-owned event armed at an absolute instant ------------

def test_schedule_at_fires_at_the_instant_as_given_and_rearms():
    """``when`` is not re-derived from a delay: 0.1 + 0.2 != 0.3, and the
    event fires at whichever of them it was armed for."""
    env = Environment()
    ev = Event(env)
    fired = []
    cbs = [lambda _e: fired.append(env.now)]
    for when in (0.1 + 0.2, 0.3 + 1.0, 7.0):
        ev.callbacks = cbs
        assert env.schedule_at(ev, when) is ev
        assert ev.triggered and ev.ok and ev.value is None  # born settled, like a Timeout
        env.run(until=when)
    assert fired == [0.1 + 0.2, 1.3, 7.0]
    assert env.events_popped == 3 and env.pool_hits == 0  # one event, never pooled


def test_schedule_at_now_takes_its_turn_in_the_fifo():
    env = Environment()
    env.timeout(2.0)
    env.run(until=2.0)
    order = []
    env.event().succeed().add_callback(lambda _e: order.append("before"))
    late = Event(env)
    late.add_callback(lambda _e: order.append("armed"))
    env.schedule_at(late, 2.0)
    env.event().succeed().add_callback(lambda _e: order.append("after"))
    env.run(until=2.0)
    assert order == ["before", "armed", "after"]


def test_schedule_at_refuses_an_event_that_is_still_scheduled():
    env = Environment()
    ev = Event(env)
    env.schedule_at(ev, 1.0)
    with pytest.raises(SimulationError, match="already scheduled"):
        env.schedule_at(ev, 2.0)
    env.run(until=1.0)
    env.schedule_at(ev, 2.0)  # fired: free again


def test_a_process_can_wait_out_an_absolute_instant():
    env = Environment()

    def waiter():
        yield env.schedule_at(env.event(), 0.1 + 0.2)
        return env.now

    assert env.run(until=env.process(waiter())) == 0.1 + 0.2


def test_yielding_the_past_event_resumes_at_the_same_instant():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(1.5)
        seen.append((yield env.past))
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [None, 1.5]
    assert env.past.triggered and env.past.ok
