"""Tests for the REPRO_SAN runtime sanitizers (repro.sanitize).

Covers the kernel half (free-list use-after-recycle poisoning, clock /
heap-order assertions, bit-identical pooling behaviour) and the state
half (cross-HAU isolation guard via the generator trampoline), plus the
activation contract: nothing is patched unless REPRO_SAN is set.
"""

from __future__ import annotations

import pytest

from repro import sanitize
from repro.sanitize import SanitizerError, kernel as san_kernel
from repro.sanitize import state_guard
from repro.simulation.core import Environment, Event, SimulationError, Timeout
from repro.simulation.rng import RngRegistry


@pytest.fixture(autouse=True)
def pristine_sanitizers():
    """Start every test from the uninstalled state (the suite may itself
    be running under REPRO_SAN=1, where import already installed both
    halves) and restore whatever was active afterwards."""
    was_kernel = san_kernel.installed()
    was_guard = state_guard.installed()
    san_kernel.uninstall()
    state_guard.uninstall()
    try:
        yield
    finally:
        san_kernel.uninstall()
        state_guard.uninstall()
        if was_kernel:
            san_kernel.install()
        if was_guard:
            state_guard.install()


@pytest.fixture
def kernel_sanitizer():
    san_kernel.install()
    try:
        yield
    finally:
        san_kernel.uninstall()


@pytest.fixture
def state_sanitizer():
    state_guard.install()
    try:
        yield
    finally:
        state_guard.uninstall()


def drain(env):
    while env.peek() < float("inf"):
        env.step()


# -- activation contract ------------------------------------------------------


def test_enabled_reads_repro_san(monkeypatch):
    monkeypatch.delenv("REPRO_SAN", raising=False)
    assert not sanitize.enabled()
    monkeypatch.setenv("REPRO_SAN", "0")
    assert not sanitize.enabled()
    monkeypatch.setenv("REPRO_SAN", "1")
    assert sanitize.enabled()


def test_disabled_means_untouched_kernel(monkeypatch):
    monkeypatch.delenv("REPRO_SAN", raising=False)
    sanitize.maybe_install_kernel()
    sanitize.maybe_install_state_guard()
    assert not san_kernel.installed()
    assert not state_guard.installed()
    # the class dict carries the pristine entry points
    assert Environment.step is not san_kernel._san_step


def test_install_is_idempotent_and_uninstall_restores():
    original_step = Environment.step
    san_kernel.install()
    try:
        san_kernel.install()  # second call is a no-op
        assert Environment.step is san_kernel._san_step
    finally:
        san_kernel.uninstall()
    assert Environment.step is original_step
    assert not san_kernel.installed()


# -- use-after-recycle poisoning ----------------------------------------------


def test_pooled_event_is_poisoned(kernel_sanitizer):
    env = Environment()
    ev = env.event(name="a")
    ev.succeed("v")
    ident = id(ev)
    del ev
    drain(env)
    pooled = env._pools[Event][-1]
    assert id(pooled) == ident
    assert type(pooled).__name__ == "_PoisonedEvent"
    with pytest.raises(SanitizerError, match="use-after-recycle"):
        pooled.succeed("again")
    with pytest.raises(SanitizerError, match="use-after-recycle"):
        assert pooled.triggered  # property raises before the assert sees it


def test_factory_heals_poisoned_event(kernel_sanitizer):
    env = Environment()
    ev = env.event(name="a")
    ev.succeed("v")
    ident = id(ev)
    del ev
    drain(env)
    reused = env.event(name="b")
    assert id(reused) == ident
    assert type(reused) is Event
    assert not reused.triggered  # fully usable again
    assert reused.name == "b"


def test_scheduling_a_poisoned_event_is_caught(kernel_sanitizer):
    env = Environment()
    t = env.timeout(1.0)
    del t
    drain(env)
    poisoned = env._pools[Timeout][-1]
    # simulate a defeated refcount guard: push the pooled object back
    # onto the heap without going through a factory
    env._seq += 1
    import heapq

    heapq.heappush(env._heap, (env.now + 1.0, 1, env._seq, poisoned))
    with pytest.raises(SanitizerError, match="poisoned event popped"):
        drain(env)


def test_poisoned_event_in_the_fifo_is_caught(kernel_sanitizer):
    """The tripwire covers current-instant pops, not only heap pops."""
    env = Environment()
    t = env.timeout(1.0)
    del t
    drain(env)
    env._fifo.append(env._pools[Timeout][-1])
    with pytest.raises(SanitizerError, match="poisoned event popped"):
        drain(env)


# -- pooling stays bit-identical under the sanitizer --------------------------


def test_counters_identical_with_and_without_sanitizer():
    def workload():
        env = Environment()
        for _ in range(300):
            env.timeout(1.0)
            e = env.event()
            e.succeed()
            del e
            drain(env)
        return env.events_popped, env.pool_hits, env.pool_misses, env.now

    plain = workload()
    san_kernel.install()
    try:
        sanitized = workload()
    finally:
        san_kernel.uninstall()
    assert sanitized == plain


# -- clock / heap-order assertions --------------------------------------------


def test_clock_backwards_is_caught(kernel_sanitizer):
    import heapq

    env = Environment()
    env.timeout(5.0)
    env.step()
    assert env.now == 5.0
    stale = Event(env)
    env._seq += 1
    heapq.heappush(env._heap, (1.0, 1, env._seq, stale))
    with pytest.raises(SanitizerError, match="clock moved backwards"):
        env.step()


def test_stale_fifo_entry_is_caught(kernel_sanitizer):
    """A FIFO entry is stamped with the instant it was due; popping it
    after the clock moved on is the FIFO's clock-backwards case."""
    env = Environment()
    env._fifo.append(Event(env))  # due at t=0 ...
    env._now = 5.0  # ... but the clock advanced past a non-empty FIFO
    with pytest.raises(SanitizerError, match="clock moved backwards"):
        env.step()


def test_fifo_pops_carry_the_single_heap_key(kernel_sanitizer):
    """Every pop is order-checked with the key one heap would have used:
    FIFO appends draw from the heap's own sequence counter."""
    env = Environment()
    env.timeout(1.0)  # heap, seq 1
    env.event().succeed()  # FIFO, seq 2
    env.timeout(0.0)  # FIFO, seq 3
    env.timeout(1.0)  # heap, seq 4
    keys = []
    while env.peek() < float("inf"):
        env.step()
        keys.append(san_kernel._order_state[id(env)][1])
    assert keys == [(0.0, 1, 2), (0.0, 1, 3), (1.0, 1, 1), (1.0, 1, 4)]


def test_schedule_at_entries_carry_the_single_heap_key_too(kernel_sanitizer):
    """An event armed at an absolute instant is stamped (due now) or
    keyed (later) from the same counter, and refused like a bad delay."""
    env = Environment()
    env.timeout(1.0)  # heap, seq 1
    env.schedule_at(Event(env), 1.0)  # heap, seq 2
    env.schedule_at(Event(env), 0.0)  # FIFO, seq 3
    keys = []
    while env.peek() < float("inf"):
        env.step()
        keys.append(san_kernel._order_state[id(env)][1])
    assert keys == [(0.0, 1, 3), (1.0, 1, 1), (1.0, 1, 2)]
    for bad in (float("nan"), 0.5):  # now is 1.0
        with pytest.raises(SimulationError):
            env.schedule_at(Event(env), bad)
    assert env.peek() == float("inf")


def test_due_now_entry_on_the_heap_is_caught(kernel_sanitizer):
    """What the shadow order exists for.  A kernel that routed "due now"
    by ``delay == 0`` would push an underflowing delay onto the heap,
    where it overtakes FIFO entries scheduled before it."""
    import heapq

    env = Environment()
    env.timeout(1.0)
    env.step()
    env.event().succeed()  # FIFO: (1.0, NORMAL, 2)
    env._seq += 1
    heapq.heappush(env._heap, (1.0, 1, env._seq, Event(env)))  # (1.0, NORMAL, 3)
    env.step()  # the heap's top is due now: it goes first
    with pytest.raises(SanitizerError, match="total order violated"):
        env.step()  # seq 2 after seq 3


def test_heap_order_regression_is_caught(kernel_sanitizer):
    env = Environment()
    env.timeout(1.0)
    env.step()
    # a pop whose (time, priority, seq) key sorts before the previous
    # pop violates the total order even if the clock check passes
    with pytest.raises(SanitizerError, match="total order violated"):
        san_kernel._check_order(env, (1.0, 0, 0))


def test_order_state_evicts_old_environments(kernel_sanitizer):
    envs = [Environment() for _ in range(san_kernel._ORDER_CAP + 8)]
    for env in envs:
        env.timeout(1.0)
        env.step()
    assert len(san_kernel._order_state) <= san_kernel._ORDER_CAP


def test_sanitized_run_freezes_the_heap_like_the_pristine_run(kernel_sanitizer):
    """REPRO_SAN swaps ``run`` for the stepwise loop; the run-phase
    ``frozen_heap`` must come along."""
    import gc

    env = Environment()
    seen = []

    def probe():
        yield env.timeout(1.0)
        seen.append(gc.get_freeze_count() > 0)

    env.process(probe())
    env.run(until=2.0)
    assert seen == [True]
    assert gc.get_freeze_count() == 0


# -- cross-HAU state-isolation guard ------------------------------------------


def _make_operator(hau_id):
    from repro.dsps.operator import Operator, OperatorContext

    class CounterOp(Operator):
        state_attrs = ("count",)

        def __init__(self):
            super().__init__(name="counter")
            self.count = 0

    op = CounterOp()
    op.setup(
        OperatorContext(hau_id=hau_id, now=lambda: 0.0, rngs=RngRegistry(0))
    )
    return op


def test_state_write_from_owner_hau_is_allowed(state_sanitizer):
    op = _make_operator("H1")

    def loop():
        op.count += 1
        yield "done"

    tramp = state_guard._HauTrampoline(loop(), "H1")
    assert next(tramp) == "done"
    assert op.count == 1


def test_state_write_from_foreign_hau_raises(state_sanitizer):
    op = _make_operator("H1")

    def loop():
        op.count += 1
        yield "done"

    tramp = state_guard._HauTrampoline(loop(), "H2")
    with pytest.raises(SanitizerError, match="cross-HAU"):
        next(tramp)


def test_state_write_outside_any_loop_is_allowed(state_sanitizer):
    # setup/snapshot/restore run outside the HAU loops — no stack, no guard
    op = _make_operator("H1")
    op.count = 41
    assert op.count == 41


def test_non_state_attrs_never_guarded(state_sanitizer):
    op = _make_operator("H1")

    def loop():
        op.name = "renamed"  # not in state_attrs
        yield "done"

    tramp = state_guard._HauTrampoline(loop(), "H2")
    assert next(tramp) == "done"
    assert op.name == "renamed"


def test_trampoline_tracks_interleaved_generators(state_sanitizer):
    op1 = _make_operator("H1")
    op2 = _make_operator("H2")

    def loop(op):
        op.count += 1
        yield "a"
        op.count += 1
        yield "b"

    t1 = state_guard._HauTrampoline(loop(op1), "H1")
    t2 = state_guard._HauTrampoline(loop(op2), "H2")
    # interleave resumptions: each write must see its own hau on top
    assert next(t1) == "a"
    assert next(t2) == "a"
    assert next(t1) == "b"
    assert next(t2) == "b"
    assert (op1.count, op2.count) == (2, 2)
    assert state_guard._hau_stack == []


# -- end-to-end: digest-bearing run is clean under both sanitizers ------------


def test_digest_case_identical_under_sanitizers():
    from repro.harness.digest import compute_baseline

    plain = compute_baseline(["tmi/baseline@2"])["digests"]
    san_kernel.install()
    state_guard.install()
    try:
        sanitized = compute_baseline(["tmi/baseline@2"])["digests"]
    finally:
        state_guard.uninstall()
        san_kernel.uninstall()
    assert sanitized == plain  # every guard armed, result bit-identical
