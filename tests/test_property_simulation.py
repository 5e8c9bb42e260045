"""Property-based tests (hypothesis) for the simulation kernel."""

from heapq import heappop, heappush

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation import Environment, Interrupt, SimulationError, Store
from repro.simulation.core import _Kick
from repro.simulation.resources import Resource


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    """Whatever the mix of timeouts, observed firing times never go back."""
    env = Environment()
    observed = []

    def proc(d):
        yield env.timeout(d)
        observed.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert env.now == max(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=20
    )
)
@settings(max_examples=40, deadline=None)
def test_sequential_process_accumulates_delays(delays):
    env = Environment()

    def proc():
        for d in delays:
            yield env.timeout(d)
        return env.now

    p = env.process(proc())
    env.run(until=p)
    assert abs(p.value - sum(delays)) < 1e-6 * max(1.0, sum(delays))


@given(items=st.lists(st.integers(), min_size=0, max_size=50))
@settings(max_examples=60, deadline=None)
def test_store_is_fifo_for_any_item_sequence(items):
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        for _ in items:
            value = yield store.get()
            got.append(value)

    def producer():
        for x in items:
            yield store.put(x)
            yield env.timeout(0.001)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == items


@given(
    holds=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=12),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_resource_never_exceeds_capacity(holds, capacity):
    env = Environment()
    res = Resource(env, capacity=capacity)
    high_water = {"n": 0}

    def user(hold):
        req = res.request()
        yield req
        high_water["n"] = max(high_water["n"], res.count)
        yield env.timeout(hold)
        res.release(req)

    for h in holds:
        env.process(user(h))
    env.run()
    assert high_water["n"] <= capacity
    assert res.count == 0  # everything released


@given(
    priorities=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=15)
)
@settings(max_examples=40, deadline=None)
def test_resource_grants_by_priority_class(priorities):
    """Queued requests are granted lowest-priority-value first, FIFO within
    a class."""
    env = Environment()
    res = Resource(env, capacity=1)
    blocker = res.request()  # occupy the slot so all others queue
    granted = []
    reqs = []
    for i, p in enumerate(priorities):
        req = res.request(priority=p)
        req.add_callback(lambda _ev, i=i: granted.append(i))
        reqs.append((p, i, req))

    def release_all():
        res.release(blocker)
        for _p, _i, req in sorted(reqs, key=lambda t: (t[0], t[1])):
            yield req
            res.release(req)

    env.process(release_all())
    env.run()
    expected = [i for (_p, i, _r) in sorted(reqs, key=lambda t: (t[0], t[1]))]
    assert granted == expected


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_rng_registry_streams_are_stable(seed):
    from repro.simulation.rng import RngRegistry

    a = RngRegistry(seed).stream("component").random(5)
    b = RngRegistry(seed).stream("component").random(5)
    assert list(a) == list(b)
    # a different component name gives an independent stream
    c = RngRegistry(seed).stream("other").random(5)
    assert list(a) != list(c)


# -- the two-tier event list fires in single-heap order ------------------------
#
# The reference is the scheduler the FIFO replaced: one heap, every entry
# keyed (time, seq), smallest first.  It reuses the events and
# processes under test — the claim is about the *order* the event list
# hands them out in — but none of the two-tier pop rule.


class _ToHeap:
    """Stands in for the current-instant FIFO: always empty, and an
    append is a heap push with the next sequence number."""

    def __init__(self, env):
        self.env = env

    def __len__(self):
        return 0

    def append(self, event):
        env = self.env
        env._seq += 1
        heappush(env._heap, (env._now, env._seq, event))


class SingleHeapEnvironment(Environment):
    def __init__(self):
        super().__init__()
        self._fifo = _ToHeap(self)

    def step(self):
        when, _seq, event = heappop(self._heap)
        assert when >= self._now
        self._now = when
        self.events_popped += 1
        if isinstance(event, _Kick):
            return event.fire()
        event._flushed = True
        waiter, callbacks = event._waiter, event.callbacks
        event._waiter = event.callbacks = None
        if waiter is not None:
            waiter._resume(event)
        for cb in callbacks or ():
            cb(event)

    def run(self, until):
        while self._heap and self._heap[0][0] <= until:
            self.step()
        self._now = until


_HORIZON = 100.0
_N_EVENTS = 4
# 0.0 is due now by definition; 1e-30 is due now whenever the clock has
# left zero (0.5 + 1e-30 == 0.5) and a separate instant while it has not.
_DELAYS = st.sampled_from([0.0, 1e-30, 0.25, 0.5, 1.0])
_EVENT = st.integers(0, _N_EVENTS - 1)
_STEP = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("succeed"), _EVENT, _DELAYS),
    st.tuples(st.just("fail"), _EVENT, _DELAYS),
    st.tuples(st.just("wait"), _EVENT),
    st.tuples(st.just("observe"), _EVENT),
    st.tuples(st.just("put"), st.integers(0, 9)),
    st.tuples(st.just("get")),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
)
_PROGRAM = st.lists(st.lists(_STEP, max_size=7), min_size=1, max_size=6)
_DRIVERS = ["horizon", "exhaust", "steps", "chunks", "until-event"]


def _execute(env, program):
    """Run ``program`` (one step list per process) on ``env``; the log
    holds every step completion and observer call, in the
    order the kernel produced them."""
    log = []
    events = [env.event() for _ in range(_N_EVENTS)]
    store = Store(env, capacity=2)
    procs = []

    def note(*what):
        log.append((env.now, *what))

    def proc(pid, steps):
        for n, (op, *args) in enumerate(steps):
            try:
                if op == "sleep":
                    yield env.timeout(args[0])
                elif op in ("succeed", "fail"):
                    ev = events[args[0]]
                    if not ev.triggered:
                        if op == "succeed":
                            ev.succeed((pid, n), delay=args[1])
                        else:
                            ev.fail(ValueError(pid, n), delay=args[1])
                elif op == "wait":
                    note(pid, n, "got", (yield events[args[0]]))
                elif op == "observe":
                    events[args[0]].add_callback(lambda _e, w=(pid, n): note(*w, "seen"))
                elif op == "put":
                    yield store.put(args[0])
                elif op == "get":
                    note(pid, n, "item", (yield store.get()))
                elif op == "interrupt" and args[0] < len(procs):
                    procs[args[0]].interrupt((pid, n))
            except Interrupt as intr:
                note(pid, n, "interrupted", intr.cause)
            except ValueError as err:
                note(pid, n, "failed", err.args)
            note(pid, n, op)

    for pid, steps in enumerate(program):
        procs.append(env.process(proc(pid, steps), label=str(pid)))
    return log, procs


def _drive(env, procs, driver):
    if driver == "exhaust":
        env.run()
    elif driver == "steps":
        while env.peek() <= _HORIZON:
            env.step()
    elif driver == "chunks":
        for horizon in (0.0, 0.25, 0.5, 1.0, 2.0):
            env.run(until=horizon)
    elif driver == "until-event":
        try:
            env.run(until=procs[0])  # may stop in the middle of an instant
        except SimulationError:
            pass  # p0 is blocked for good: the schedule ran dry instead
    env.run(until=_HORIZON)


# One program with every ingredient the FIFO could get wrong.
_NAMED_CASES = [
    # p0: leaves t=0, then a burst at t=0.5 — a timeout that underflows
    # (0.5 + 1e-30 == 0.5), zero-delay settlements, store traffic
    [("sleep", 0.5), ("sleep", 1e-30), ("succeed", 0, 0.0), ("put", 1),
     ("fail", 1, 1e-30), ("sleep", 0.0), ("succeed", 2, 0.5)],
    # p1: lands on the busy instant from the heap (scheduled at t=0.25)
    [("sleep", 0.25), ("sleep", 0.25), ("wait", 0), ("get",), ("wait", 1)],
    # p2: waits on the burst's settlements
    [("sleep", 0.5), ("wait", 0), ("wait", 2)],
    # p3: waits on an event that already fired -> parked in the FIFO
    [("sleep", 0.5), ("sleep", 0.0), ("sleep", 0.0), ("wait", 0), ("observe", 2)],
    # p4: interrupts p3 while it is parked there, and p1 while it waits
    [("sleep", 0.5), ("sleep", 0.0), ("sleep", 0.0), ("interrupt", 3),
     ("interrupt", 1), ("observe", 2), ("wait", 2)],
]


@given(program=_PROGRAM, driver=st.sampled_from(_DRIVERS))
@example(program=_NAMED_CASES, driver="horizon")
@example(program=_NAMED_CASES, driver="steps")
@example(program=_NAMED_CASES, driver="until-event")
@settings(max_examples=300, deadline=None)
def test_event_order_equals_the_single_heap_kernel(program, driver):
    reference = SingleHeapEnvironment()
    expected, _ = _execute(reference, program)
    reference.run(until=_HORIZON)

    env = Environment()
    log, procs = _execute(env, program)
    _drive(env, procs, driver)

    assert log == expected
    assert env.events_popped == reference.events_popped
    assert env.now == reference.now
