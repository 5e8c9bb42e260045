"""Kernel fast-path unit tests: the timeout free list, kick
direct-resume, and the ordering invariants the fast paths must preserve.

The free list's safety contract is "reuse is invisible": a timeout is
only recycled when the step() frame holds the last reference, so nothing
in the model can observe the identity reuse.  These tests pin both
halves — that pooling *does* happen in the steady state (the perf win is
real) and that it *does not* happen while anyone still holds the
timeout — and that no other event is ever reissued.
"""

import gc
import sys

from repro.harness import experiment
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.simulation.core import (
    _POOL_LIMIT,
    Environment,
    Event,
    Interrupt,
    Timeout,
)
from repro.simulation.resources import Store
from tests.test_hau_intake import DrawCounting


def drain(env):
    while env.peek() < float("inf"):
        env.step()


# -- free-list reuse ----------------------------------------------------------

def test_timeout_instances_are_reused():
    env = Environment()
    # no reference held by the test → eligible for recycling at flush
    ident = id(env.timeout(1.0))
    drain(env)
    second = env.timeout(1.0)
    assert id(second) == ident, "steady-state timeouts should come from the pool"
    assert env.pool_hits >= 1


def test_held_timeout_is_never_recycled():
    """A reference held by the model pins the event out of the pool."""
    env = Environment()
    held = env.timeout(1.0)
    env.run(until=held)
    assert held.ok and held._flushed
    fresh = env.timeout(1.0)
    assert fresh is not held
    # the held object is untouched by later kernel activity
    env.run(until=fresh)
    assert held.value is None and held.ok


def test_timeout_value_visible_after_pool_reuse():
    """Values yielded from reused timeouts round-trip correctly."""
    env = Environment()
    seen = []

    def proc():
        for i in range(5):
            got = yield env.timeout(1.0, value=i)
            seen.append(got)

    env.process(proc())
    drain(env)
    assert seen == [0, 1, 2, 3, 4]


def test_pool_is_bounded():
    env = Environment()
    for _ in range(2 * _POOL_LIMIT):
        env.timeout(1.0)
    drain(env)
    assert len(env._timeout_pool) == _POOL_LIMIT


def test_pools_are_per_environment():
    a, b = Environment(), Environment()
    a.timeout(1.0)
    drain(a)
    assert a._timeout_pool and not b._timeout_pool


def test_unregistered_subclass_is_not_pooled():
    class Other(Timeout):
        __slots__ = ()

    env = Environment()
    Other(env, 1.0)
    drain(env)
    assert not env._timeout_pool  # exact class only: a subclass is never pooled


def test_kernel_stats_counts_pops():
    env = Environment()
    for _ in range(3):
        env.timeout(1.0)
    drain(env)
    stats = env.kernel_stats()
    assert stats["events_popped"] == 3
    assert stats["pool_misses"] >= 1  # first Timeout allocation


# -- kick direct-resume (boot / rewait / interrupt) ---------------------------

def test_process_boot_order_matches_creation_order():
    env = Environment()
    order = []

    def proc(tag):
        order.append(tag)
        yield env.timeout(0)

    env.process(proc("a"))
    env.process(proc("b"))
    env.process(proc("c"))
    drain(env)
    assert order == ["a", "b", "c"]


def test_interrupt_through_kick_path():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(10.0)
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))
            yield env.timeout(1.0)
            log.append(("resumed", env.now))

    def attacker(target):
        yield env.timeout(2.0)
        target.interrupt(cause="boom")

    p = env.process(victim())
    env.process(attacker(p))
    drain(env)
    assert log == [("interrupted", 2.0, "boom"), ("resumed", 3.0)]


def test_yield_already_flushed_event_resumes_via_kick():
    """Yielding an event whose callbacks already ran must still resume
    the process, at the current instant, in seq order (the old rewait
    path; now a pooled kick)."""
    env = Environment()
    log = []
    done = env.event()

    def early():
        yield env.timeout(1.0)
        done.succeed("payload")

    def late():
        yield env.timeout(2.0)
        got = yield done  # done flushed at t=1 — re-wait path
        log.append((env.now, got))

    env.process(early())
    env.process(late())
    drain(env)
    assert log == [(2.0, "payload")]


# -- ordering invariants of the resource fast paths ---------------------------

def test_store_put_get_fifo_order_preserved():
    env = Environment()
    store = Store(env, capacity=2)
    got = []

    def producer():
        for i in range(6):
            yield store.put(i)

    def consumer():
        for _ in range(6):
            item = yield store.get()
            got.append(item)
            yield env.timeout(0.1)

    env.process(producer())
    env.process(consumer())
    drain(env)
    assert got == [0, 1, 2, 3, 4, 5]


def test_store_fast_path_settles_put_before_getter():
    """On the fast path, put() succeeds before any waiting getter fires —
    the same order _drain produces."""
    env = Environment()
    store = Store(env, capacity=4)
    order = []

    def getter():
        item = yield store.get()
        order.append(("got", item))

    def putter():
        yield env.timeout(1.0)
        ev = store.put("x")
        ev.add_callback(lambda _e: order.append(("put-settled",)))
        yield ev

    env.process(getter())
    env.process(putter())
    drain(env)
    assert order == [("put-settled",), ("got", "x")]


def test_store_request_events_are_not_cross_contaminated():
    """No _Get/_Put ever leaks one operation's item into another, over
    enough churn to reuse every freed slot many times."""
    env = Environment()
    store = Store(env, capacity=3)
    got = []

    def producer():
        for i in range(200):
            yield store.put(("item", i))

    def consumer():
        for _ in range(200):
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    drain(env)
    assert got == [("item", i) for i in range(200)]


def test_refcount_guard_is_exact():
    """The recycle guard fires at refcount 2 precisely: one extra live
    reference (a condition, a list, a local) keeps the timeout out."""
    env = Environment()
    t = env.timeout(1.0)
    keeper = [t]
    drain(env)
    assert sys.getrefcount(t) >= 3  # keeper + local + getrefcount arg
    assert t not in env._timeout_pool
    del keeper


# -- only timeouts are pooled ---------------------------------------------------

def test_only_timeouts_are_pooled(monkeypatch):
    """A plain event that fired with nobody holding it is freed, never kept
    to be reissued, and the pool counters count timeouts only: on a
    paper-app run that draws plain events too, hits plus misses are
    exactly the timeouts drawn."""
    env = Environment()
    ev = env.event(name="a")
    ev.succeed("va")
    del ev  # drop the last model-side reference before the flush
    drain(env)
    live = [o for o in gc.get_objects() if type(o) is Event and o.env is env]
    assert live == [env.past]
    assert (env.pool_hits, env.pool_misses) == (0, 0)

    monkeypatch.setattr(experiment, "Environment", DrawCounting)
    cfg = ExperimentConfig(app="bcp", scheme="baseline", n_checkpoints=3, window=20.0,
                           warmup=10.0)
    env = run_experiment(cfg).runtime.env
    assert env.events > 0 and env.timeouts > 0
    assert env.pool_hits + env.pool_misses == env.timeouts
