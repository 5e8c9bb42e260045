"""Tests for the REPRO_SAN runtime sanitizers (repro.sanitize).

Covers the kernel half (free-list use-after-recycle poisoning, clock /
heap-order assertions, bit-identical pooling behaviour) and the state
half (cross-HAU isolation guard via the generator trampoline), plus the
activation contract: nothing is patched unless REPRO_SAN is set.
"""

from __future__ import annotations

import re

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
    # the class dict carries the pristine pop seam, and a fresh
    # environment plain containers
    assert Environment._drain is not san_kernel._san_drain
    env = Environment()
    assert type(env._fifo).__name__ == "deque" and type(env._timeout_pool) is list


def test_install_is_idempotent_and_uninstall_restores():
    original = Environment._drain
    san_kernel.install()
    try:
        san_kernel.install()  # second call is a no-op
        assert Environment._drain is san_kernel._san_drain
    finally:
        san_kernel.uninstall()
    assert Environment._drain is original
    assert not san_kernel.installed()


def test_the_sanitizer_wraps_the_pop_and_nothing_else(kernel_sanitizer):
    """``step`` and every ``run`` shape are the kernel's own code; only
    the one body they all call is wrapped, and the factories are audited
    through the containers they already use."""
    import inspect

    patched = {
        name
        for name, attr in vars(Environment).items()
        if getattr(attr, "__module__", None) == san_kernel.__name__
    }
    assert patched == {"__init__", "_drain"}
    source = inspect.getsource(san_kernel)
    for kernel_body in ("heappop", "heappush", "getrefcount", "._resume("):
        assert kernel_body not in source


# -- use-after-recycle poisoning ----------------------------------------------


def test_pooled_event_is_poisoned(kernel_sanitizer):
    env = Environment()
    t = env.timeout(1.0, "v")
    ident = id(t)
    del t
    drain(env)
    pooled = env._timeout_pool[-1]
    assert id(pooled) == ident
    assert type(pooled).__name__ == "_PoisonedTimeout"
    with pytest.raises(SanitizerError, match="use-after-recycle"):
        pooled.succeed("again")
    with pytest.raises(SanitizerError, match="use-after-recycle"):
        assert pooled.triggered  # property raises before the assert sees it


def test_factory_heals_poisoned_event(kernel_sanitizer):
    env = Environment()
    t = env.timeout(1.0, "v")
    ident = id(t)
    del t
    drain(env)
    reused = env.timeout(2.0, "w")
    assert id(reused) == ident
    assert type(reused) is Timeout
    assert reused.triggered and not reused._flushed  # armed again
    assert env.run(until=reused) == "w" and env.now == 3.0


def test_scheduling_a_poisoned_event_is_caught(kernel_sanitizer):
    env = Environment()
    t = env.timeout(1.0)
    del t
    drain(env)
    poisoned = env._timeout_pool[-1]
    # simulate a defeated refcount guard: push the pooled object back
    # onto the heap without going through a factory
    env._seq += 1
    import heapq

    heapq.heappush(env._heap, (env.now + 1.0, env._seq, poisoned))
    with pytest.raises(SanitizerError, match="poisoned event popped"):
        drain(env)


def test_poisoned_event_in_the_fifo_is_caught(kernel_sanitizer):
    """The tripwire covers current-instant pops, not only heap pops."""
    env = Environment()
    t = env.timeout(1.0)
    del t
    drain(env)
    env._fifo.append(env._timeout_pool[-1])
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
    heapq.heappush(env._heap, (1.0, env._seq, stale))
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
        keys.append(env._fifo.last_key)
    assert keys == [(0.0, 2), (0.0, 3), (1.0, 1), (1.0, 4)]


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
        keys.append(env._fifo.last_key)
    assert keys == [(0.0, 3), (1.0, 1), (1.0, 2)]
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
    env.event().succeed()  # FIFO: (1.0, 2)
    env._seq += 1
    heapq.heappush(env._heap, (1.0, env._seq, Event(env)))  # (1.0, 3)
    env.step()  # the heap's top is due now: it goes first
    with pytest.raises(SanitizerError, match="total order violated"):
        env.step()  # seq 2 after seq 3


def test_heap_order_regression_is_caught(kernel_sanitizer):
    env = Environment()
    env.timeout(1.0)
    env.step()
    # a pop whose (time, seq) key sorts before the previous
    # pop violates the total order even if the clock check passes
    with pytest.raises(SanitizerError, match="total order violated"):
        env._fifo.check((1.0, 0), Event(env))


def test_a_heap_entry_behind_the_previous_pop_is_caught(kernel_sanitizer):
    """The heap half of the order audit, through the wrapper: an entry
    whose key sorts before the one just popped (here: the counter was
    wound back, as a second scheduler sharing the heap would) is caught
    before it fires."""
    import heapq

    env = Environment()
    env.timeout(1.0)
    env.timeout(1.0)
    env.step()
    env.step()  # popped (1.0, 2)
    late = Event(env)
    heapq.heappush(env._heap, (1.0, 1, late))
    with pytest.raises(SanitizerError, match=r"\(1.0, 1\) scheduled behind \(1.0, 2\)"):
        env.step()
    assert not late._flushed


def test_order_audit_state_is_per_environment(kernel_sanitizer):
    """The last key lives on each environment's own FIFO: a second
    environment starting at t=0 is not compared with the first one's."""
    first, second = Environment(), Environment()
    first.timeout(5.0)
    first.run()
    second.timeout(1.0)
    second.run()
    assert (first._fifo.last_key[0], second._fifo.last_key[0]) == (5.0, 1.0)


def test_sanitized_run_freezes_the_heap_like_the_pristine_run(kernel_sanitizer):
    """``run`` is the kernel's own under REPRO_SAN, so the run-phase
    ``frozen_heap`` is in force around the audited pops."""
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


def _hosted(op, hau_id):
    from repro.dsps.operator import OperatorContext

    op.setup(OperatorContext(hau_id=hau_id, rngs=RngRegistry(0)))
    return op


def _make_operator(hau_id):
    from repro.dsps.operator import Operator

    class CounterOp(Operator):
        state_attrs = ("count",)

        def __init__(self):
            super().__init__(name="counter")
            self.count = 0

    return _hosted(CounterOp(), hau_id)


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
    from repro.harness.digest import canonical_cases, result_digest
    from repro.harness.experiment import run_experiment

    cfg, kwargs = canonical_cases()["tmi/baseline@2"]
    plain = result_digest(run_experiment(cfg, **kwargs))
    san_kernel.install()
    state_guard.install()
    try:
        sanitized = result_digest(run_experiment(cfg, **kwargs))
    finally:
        state_guard.uninstall()
        san_kernel.uninstall()
    assert sanitized == plain  # every guard armed, result bit-identical


# -- snapshot-alias guard: payloads are values ---------------------------------


def _make_pooling_operator(hau_id="H1"):
    from repro.apps.base import SizedPayload
    from repro.dsps.operator import Operator

    class Pooler(Operator):
        state_attrs = ("pool", "count")

        def __init__(self):
            super().__init__(name="pooler")
            self.pool = [SizedPayload(data={"x": i}, nominal_size=8) for i in range(3)]
            self.count = 0

    return _hosted(Pooler(), hau_id)


def test_restore_of_an_untouched_snapshot_passes(state_sanitizer):
    op = _make_pooling_operator()
    snap = op.snapshot()
    assert snap == {"pool": op.pool, "count": 0}  # still the {attr: value} dict
    op.pool.append(op.pool[0])  # container writes are the operator's own business
    op.count += 1
    fresh = _make_pooling_operator()
    fresh.restore(snap)
    fresh.restore(snap)  # and again, as on a second failure
    assert (len(fresh.pool), fresh.count) == (3, 0)


def test_payload_written_in_place_after_a_snapshot_fails_the_restore(state_sanitizer):
    op = _make_pooling_operator(hau_id="H7")
    snap = op.snapshot()
    op.pool[1].data["x"] += 1  # the pooled payload is shared with the snapshot
    with pytest.raises(SanitizerError, match=r"snapshot alias.*Pooler\.pool.*'H7'"):
        _make_pooling_operator(hau_id="H7").restore(snap)


def test_snapshot_guard_comes_and_goes_with_the_state_guard():
    from repro.dsps.operator import Operator

    pristine = (Operator.snapshot, Operator.restore)
    state_guard.install()
    try:
        assert Operator.snapshot is state_guard._guarded_snapshot
        assert Operator.restore is state_guard._guarded_restore
    finally:
        state_guard.uninstall()
    assert (Operator.snapshot, Operator.restore) == pristine
    # unguarded, the same mutation goes unnoticed: no branch rides on restore
    op = _make_pooling_operator()
    snap = op.snapshot()
    assert type(snap) is dict
    op.pool[1].data["x"] += 1
    _make_pooling_operator().restore(snap)


def _planted_chain():
    """source -> operator that writes to a pooled payload in place -> sink."""
    from repro.apps.base import SizedPayload
    from repro.dsps.graph import QueryGraph
    from repro.dsps.operator import Emit, Operator, SourceOperator
    from repro.dsps.testing import VerifySink

    class PayloadSource(SourceOperator):
        def generate(self):
            for i in range(80):
                yield (0.05, Emit(SizedPayload(data={"x": i}, nominal_size=50_000), 50_000, key=i))

    class InPlaceWriter(Operator):
        state_attrs = ("pool",)

        def __init__(self):
            super().__init__(name="writer")
            self.pool = []

        def on_tuple(self, port, tup):
            self.pool.append(tup.payload)
            self.pool[0].data["x"] += 1  # the planted bug
            return [Emit(payload=len(self.pool), size=64, key=tup.key)]

    g = QueryGraph()
    g.add_hau("src", lambda: [PayloadSource()], is_source=True)
    g.add_hau("writer", lambda: [InPlaceWriter()])
    g.add_hau("sink", lambda: [VerifySink()], is_sink=True)
    g.connect("src", "writer")
    g.connect("writer", "sink")
    return g


def test_planted_in_place_write_trips_at_the_next_recovery(
    kernel_sanitizer, state_sanitizer
):
    """End to end, as CI's sanitize job runs: the guard fires inside the
    recovery process, nobody waits on that process, and the kernel's own
    rule — not a sanitizer special case — stops the run naming it."""
    from repro.cluster import ClusterSpec
    from repro.core import MSSrc
    from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication

    env = Environment()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="planted", graph=_planted_chain()),
        MSSrc(checkpoint_times=[1.0], enable_recovery=True),
        RuntimeConfig(seed=7, cluster=ClusterSpec(workers=4, spares=4, racks=2)),
    )
    rt.start()

    def killer():
        yield env.timeout(1.8)
        rt.haus["sink"].node.fail("injected")

    env.process(killer())
    with pytest.raises(SimulationError, match=r"'storage:ms-src\.watch' failed at t=") as failure:
        env.run(until=20.0)
    cause = failure.value.__cause__
    assert isinstance(cause, SanitizerError)
    assert re.search(r"InPlaceWriter\.pool.*'writer'", str(cause))


@pytest.mark.parametrize(
    "app, window, failure_at",
    [
        ("tmi", 60.0, 40.0),
        ("bcp", 60.0, 40.0),
        ("signalguru", 80.0, 60.0),  # its first round commits late, its reload is long
        ("synth", 60.0, 40.0),
    ],
)
def test_bundled_apps_recover_clean_under_the_snapshot_guard(
    app, window, failure_at, kernel_sanitizer, state_sanitizer
):
    from repro.harness import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        app=app, scheme="ms-src+ap", n_checkpoints=2, window=window, warmup=10.0,
        seed=5, enable_recovery=True,
        app_params={"n_minutes": 0.25} if app == "tmi" else {},
    )
    res = run_experiment(cfg, failure_at=failure_at)
    (recovery,) = res.scheme.recoveries
    # every HAU was restored, from a checkpoint that was really read back
    assert recovery.haus_recovered == 55 and recovery.bytes_read > 0


def test_install_before_the_first_dsps_import_patches_once():
    """Under REPRO_SAN=1 importing repro.dsps installs the guard; an
    explicit install() that triggers that import must not then record the
    guards as the originals (uninstall would leave them in place, and the
    guarded snapshot would call itself)."""
    import subprocess
    import sys

    from repro.sanitize.canary import _child_env

    code = """
from repro.sanitize import state_guard
state_guard.install()
from repro.dsps.operator import Operator
assert Operator.snapshot is state_guard._guarded_snapshot
state_guard.uninstall()
assert "__setattr__" not in Operator.__dict__
assert Operator.snapshot.__module__ == "repro.dsps.operator"
"""
    env = {**_child_env(0), "REPRO_SAN": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
