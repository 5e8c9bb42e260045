"""Core of the discrete-event engine: events, processes, environment.

The engine is a classic event-list design.  An :class:`Event` has a
value, a waiting process and a list of callbacks; events fire in
``(time, seq)`` order.  The event list has two tiers that together apply
exactly that order: an entry due at the current instant is appended to a
FIFO (it is next, after everything scheduled before it at this instant,
and a queue already knows that); everything else is pushed as
``(time, seq, event)`` onto a heap.  A :class:`Process` wraps a
generator: every ``yield`` hands back an event, and the process resumes
when that event fires.
This mirrors the structure of SimPy, trimmed to what the reproduction
needs and tuned for determinism.

Fast paths (see DESIGN.md, "Kernel performance"): the kernel recycles
hot-path event objects through per-environment free lists, resumes
processes through pooled :class:`_Kick` markers instead of throwaway
``boot:``/``rewait:``/``interrupt:`` events (and an idle process that
parks on :attr:`Environment.parked` through one more, its unpark,
instead of a wake event of its own), keeps the first process to
wait on an event in a slot and allocates the callback list only for
later registrants, and settles events with inlined scheduling.  Every
fast path preserves the ``(time, seq)`` total order exactly,
so same-seed runs remain bit-identical (checked by the pinned digests
and their one gate, ``python -m repro.scenarios goldens``;
``REPRO_SAN=1`` re-derives the order on every pop).  Popping and firing
an event is written once, in :meth:`Environment._drain`; ``run`` and
``step`` choose its bounds and the sanitizer wraps it.
"""

from __future__ import annotations

import gc
from collections import deque
from collections.abc import Callable, Generator, Iterator
from contextlib import contextmanager
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any

from repro.observability.tracer import NULL_TRACER, Tracer

_FOREVER = float("inf")  # the horizon of a run that has none

# Per-environment free-list bound: big enough to absorb the steady-state
# churn of a 56-node run, small enough that a burst never pins memory.
_POOL_LIMIT = 512


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (not model errors)."""


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cyclic collector for one construction phase.

    Legitimate for topology/runtime construction and nowhere else: what
    is built there lives until the run ends, so a collection while
    building (eight full passes over a 4k-HAU build), or a young one
    after it, traverses it and frees nothing.  So the outermost exit
    ages it: ``gc.freeze(); gc.unfreeze()`` splices every tracked object
    into the oldest generation untraversed, and the pacing is put back
    (:func:`_restore_pacing`).  A splice never counts towards CPython's
    own trigger for a full pass, so one its counter says is due runs at
    the entry instead, where the heap is smallest (else a sweep's dead
    cells pile up).  Neither happens under a freeze someone holds (a
    run's) or a collector the caller disabled.  Restores the state it
    found, so it nests, survives exceptions and leaves a disabled
    collector disabled.  Also a decorator: ``@paused_gc()``.
    """
    was_enabled = gc.isenabled()
    ages = was_enabled and not gc.get_freeze_count()
    if ages and gc.get_count()[2] > gc.get_threshold()[2]:
        gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if ages:
                _allocations, middle, full = gc.get_count()
                gc.freeze()
                gc.unfreeze()
                _restore_pacing(middle, full)
            gc.enable()


def _restore_pacing(middle: int, full: int) -> None:
    """Put back the middle and full pass counters ``gc.freeze()`` zeroed,
    on top of any passes since, the only way ``gc`` allows: a pass over
    generation *n* bumps the counter of *n + 1*.  Right after an
    unfreeze the young generations hold next to nothing, so the first
    pass is small and the rest are empty; past its threshold a counter
    says "due" whatever its value, so that is as far as it goes."""
    _t0, middle_due, full_due = (t + 1 for t in gc.get_threshold())
    middle += gc.get_count()[1]  # collecting generation 1 zeroes it
    for _ in range(min(full, full_due)):
        gc.collect(1)
    for _ in range(min(middle, middle_due)):
        gc.collect(0)


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Keep everything alive now out of the collector's sight for one run.

    The run-phase twin of :func:`paused_gc`: the topology built before
    ``env.run`` cannot die before it returns, yet every older-generation
    collection during the run re-traverses all of it and frees nothing.
    ``gc.freeze()`` parks those objects in the permanent generation, so
    the garbage the run itself makes is still collected and only the
    pointless re-scan goes; ``gc.unfreeze()`` hands them back on exit
    (objects torn down mid-run are therefore reclaimed after the run,
    not during it).  A heap the caller froze is left alone — both ways.
    Also a decorator: ``@frozen_heap()``.

    Like :func:`paused_gc` it restores what it found, pacing included
    (:func:`_restore_pacing`): left zeroed, the counters would never
    call the full collection a process is always a few young passes
    away from, and garbage older than the run (the previous cell of a
    sweep) would be pinned by this run and the next, without bound.
    (The allocation counter of the youngest generation cannot be put
    back; a driver stepping ``run`` in calls that allocate less than one
    young pass's worth each leaves its cyclic garbage to the first
    longer call.)
    """
    if gc.get_freeze_count():
        yield
        return
    _allocations, middle, full = gc.get_count()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        _restore_pacing(middle, full)


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    ``cause`` carries an arbitrary payload describing why (e.g. the
    failure event that killed the node hosting the process).  A process
    that lets it through ends quietly, succeeded with ``None``; it is the
    only exception that does — any other fails the process, and a failed
    process nothing waits on stops the run (:meth:`Environment._drain`).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; :meth:`succeed` or :meth:`fail` settles it
    exactly once.  Callbacks registered before the environment pops the
    event off its schedule run at that pop; one registered after it never
    runs (the pop detached the list), so a caller checks ``_flushed``
    first — :meth:`Process._resume` does, and resumes through a kick.

    A process that is the *first* registrant is kept in ``_waiter`` and
    resumed directly; ``callbacks`` is ``None`` until anyone else
    attaches, and fires after the waiter, so registration order holds and
    the usual wait (one process, one event) allocates neither a list nor
    a bound method.  Use :meth:`add_callback` to observe an event.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_waiter",
        "_value",
        "_ok",
        "_settled",
        "_scheduled",
        "_flushed",
        "name",
    )

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = None
        self._waiter: Process | None = None
        self._value: Any = None
        self._ok: bool | None = None
        self._settled = False
        self._scheduled = False
        self._flushed = False
        self.name = name

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been settled (succeeded or failed)."""
        return self._settled

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if not self._settled:
            raise SimulationError(f"value of pending event {self!r}")
        return self._value

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Attach a callback, allocating the list on first use."""
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = [fn]
        else:
            cbs.append(fn)

    def _recycle(self) -> None:
        """Reset to pristine pre-settlement state before pooling.

        Called by :meth:`Environment._drain` only on provably-unreferenced
        instances of the pooled classes (:class:`Event`, :class:`Timeout`);
        a subclass with extra references overrides and chains up so the
        pool never pins objects.
        """
        self._value = None
        self._ok = None
        self._settled = False
        self._scheduled = False
        self._flushed = False
        self.callbacks = None
        self.name = ""

    # -- settlement --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Settle the event successfully, scheduling callbacks after ``delay``.

        The zero-delay schedule is inlined: a settleable event is never
        already scheduled (pre-scheduled settled events — timeouts —
        bypass this path), so the ``_scheduled`` guard of
        :meth:`Environment._schedule` is statically true here, and "due
        now" is one FIFO append.
        """
        if self._settled:
            raise SimulationError(f"event {self!r} already settled")
        if delay == 0.0:
            self._scheduled = True
            self.env._fifo.append(self)
        else:
            self.env._schedule(self, delay)
        self._settled = True
        self._ok = True
        self._value = value
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Settle the event with an exception; waiters see it raised."""
        if self._settled:
            raise SimulationError(f"event {self!r} already settled")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if delay == 0.0:
            self._scheduled = True
            self.env._fifo.append(self)
        else:
            self.env._schedule(self, delay)
        self._settled = True
        self._ok = False
        self._value = exception
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "settled" if self._settled else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Prefer :meth:`Environment.timeout`, which recycles instances through
    the environment's free list (a direct construction works identically
    but always allocates).
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        super().__init__(env)
        self.delay = delay
        self._settled = True
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)  # refuses a delay that is not >= 0

    def _recycle(self) -> None:
        # A timeout is born settled, so _settled/_ok/_scheduled stay True
        # in the pool; Environment.timeout() re-arms _flushed/delay/_value.
        self._value = None
        self.callbacks = None


def _awaited(event: "Event") -> None:
    """What ``run(until=event)`` registers on its event: the run itself
    reads the outcome, so a failed process is consumed, not unhandled."""


class _Parked(Event):
    """The one event a parked process yields (:attr:`Environment.parked`).

    Never settled and never registered on: ``callbacks`` is ``()``, so
    :meth:`Process._resume` records it as what the process waits on and
    leaves the resume to :meth:`Environment.unpark`.  Settling it or
    observing it (a callback, ``run(until=...)``) would break every
    parked process at once, so those raise instead.
    """

    __slots__ = ()

    def __init__(self, env: "Environment"):
        super().__init__(env, name="parked")
        self.callbacks = ()

    def _refuse(self, *_args: Any, **_kwargs: Any) -> Any:
        raise SimulationError("env.parked is only yielded")

    add_callback = succeed = fail = _refuse


class _Kick:
    """A pooled direct-resume marker in the current-instant FIFO.

    Replaces the throwaway ``boot:``/``rewait:``/``interrupt:`` kick
    events and the wake event an idle process used to wait on, and
    carries the outcome it delivers the way an event does: ``_ok`` /
    ``_value`` are ``True, None`` for a boot and an unpark, ``False,
    Interrupt(cause)`` for an interrupt and the flushed target's own
    outcome for a rewait.  When popped, :meth:`fire` hands itself to
    :meth:`Process._resume` — no Event allocation, no callback-list
    flush, no second resume body.  A kick is always due now, so it
    takes the FIFO position the event it replaces would have taken and
    the total order is untouched.  Kicks are engine-internal and never
    escape to model code, so they recycle unconditionally after firing.

    A pending unpark is what its process waits on, so an interrupt can
    drop it (:meth:`Process.interrupt` clears ``process``); it is still
    popped, as the wake event it replaces still fired with no waiter.
    """

    __slots__ = ("env", "process", "_ok", "_value")

    def __init__(self, env: "Environment"):
        self.env = env
        self.process: Process | None = None
        self._ok = True
        self._value: Any = None

    def fire(self) -> None:
        process = self.process
        if process is not None:  # None: an unpark dropped by an interrupt
            self.process = None
            process._resume(self)
        self._value = None
        pool = self.env._kick_pool
        if len(pool) < _POOL_LIMIT:
            pool.append(self)


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The generator yields :class:`Event` objects.  When a yielded event
    succeeds, its value is sent back into the generator; when it fails,
    the exception is thrown in.  :meth:`interrupt` throws
    :class:`Interrupt` into the generator at the current instant.
    """

    __slots__ = ("_generator", "_waiting_on", "label")

    def __init__(self, env: "Environment", generator: Generator, label: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(f"process target {generator!r} is not a generator")
        self._generator = generator
        self._waiting_on: Event | None = None
        self.label = label
        # Bootstrap: resume once at the current instant (pooled kick; same
        # position the old `boot:` event occupied).
        env._schedule_kick(self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._settled:
            return  # interrupting a finished process is a no-op
        # Detach from whatever we were waiting on so its later settlement
        # does not resume us twice.
        waited = self._waiting_on
        if waited is not None:
            if waited.__class__ is _Kick:
                waited.process = None  # a pending unpark: dropped
            elif waited._waiter is self:
                waited._waiter = None
            elif waited.callbacks and self._resume in waited.callbacks:
                waited.callbacks.remove(self._resume)
        self._waiting_on = None
        self.env._schedule_kick(self, False, Interrupt(cause))

    # -- internal ----------------------------------------------------------
    def _resume(self, event: "Event | _Kick") -> None:
        """Deliver ``event``'s outcome to the generator: the one resume body,
        for a popped event, a callback and a kick alike."""
        self._waiting_on = None
        if self._settled:
            return
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # An uncaught Interrupt terminates the process quietly: this is
            # the normal fate of a process on a killed node.
            self.succeed(None)
            return
        except BaseException as exc:
            # Anything else is a failure somebody has to consume: waiters
            # see it raised, and with none the kernel stops the run.
            self.fail(exc)
            return

        if not isinstance(target, Event):
            self._generator.close()
            self.fail(SimulationError(f"process {self.label!r} yielded non-event {target!r}"))
            return
        self._waiting_on = target
        if target._flushed:
            # The event already flushed its callbacks (it fired in the past):
            # resume via a pooled kick so we stay in schedule order.
            self.env._schedule_kick(self, target._ok, target._value)
        elif target.callbacks is None and target._waiter is None:
            target._waiter = self  # first registrant: resumed directly
        elif target is not self.env.parked:
            target.add_callback(self._resume)
        # else parked: Environment.unpark resumes it

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.label!r} {state}>"


class Environment:
    """Holds the clock and the two-tier event list; runs the simulation.

    A process that yields :attr:`parked` waits for :meth:`unpark`, which
    resumes it through a kick — the wait of an idle loop that someone
    else knows when to end, without an event of its own.

    ``_fifo`` holds bare events due at the current instant, in the
    order they were scheduled; ``_heap`` holds ``(time, seq, event)``
    for everything else.  Nothing is ever pushed onto the heap due
    *now*, so a heap entry that is due now was pushed before the instant
    began and precedes the whole FIFO, and the clock only advances once
    the FIFO is empty: together the ``(time, seq)`` order of a single
    heap, without a sequence number, a tuple or a sift for the entries
    that are simply next.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_fifo",
        "_seq",
        "past",
        "parked",
        "trace",
        "_pools",
        "_kick_pool",
        "events_popped",
        "pool_hits",
        "pool_misses",
    )

    def __init__(self):
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._fifo: deque[Event | _Kick] = deque()
        self._seq = 0
        # An event that has already fired: what a call returns when its
        # work was done by the time it returned (a send into a channel
        # with room).  Yielding it resumes the process at this instant;
        # callers that test ``_flushed`` first skip even that.
        self.past = past = Event(self, name="past")
        past._settled = past._ok = past._scheduled = past._flushed = True
        # What a process yields to park: never settled, and it takes no
        # registrant, so any number of processes can wait on it at no
        # cost until unpark() kicks one of them.
        self.parked = _Parked(self)
        # Structured tracing (repro.observability): the no-op default means
        # instrumented hot paths pay one attribute check per emission site.
        self.trace = NULL_TRACER
        # Free lists of the kernel's own two event classes (never shared
        # across environments), keyed by exact class.  Plus kernel counters.
        self._pools: dict[type, list[Event]] = {Event: [], Timeout: []}
        self._kick_pool: list[_Kick] = []
        self.events_popped = 0
        self.pool_hits = 0
        self.pool_misses = 0

    def enable_tracing(self, tracer: Tracer | None = None) -> Tracer:
        """Attach a :class:`~repro.observability.tracer.Tracer` (a fresh
        one unless given) and return it.  All instrumented layers emit
        through ``env.trace`` from then on."""
        self.trace = tracer if tracer is not None else Tracer()
        return self.trace

    def enable_telemetry(self):
        """Turn tracing on (the telemetry fold reads the trace) and return
        an empty :class:`~repro.telemetry.registry.MetricRegistry` for
        the run's result to fill.  Kept for ``perf/``'s staged run."""
        from repro.telemetry.registry import MetricRegistry

        if not self.trace.enabled:
            self.enable_tracing()
        return MetricRegistry()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- kernel statistics ---------------------------------------------------
    def kernel_stats(self) -> dict[str, int]:
        """Counters of the engine's own work (not simulated behaviour)."""
        return {
            "events_popped": self.events_popped,
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
        }

    # -- factories ----------------------------------------------------------
    def event(self, name: str = "") -> Event:
        pool = self._pools[Event]
        if pool:
            self.pool_hits += 1
            ev = pool.pop()
            ev.name = name
            return ev
        self.pool_misses += 1
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._pools[Timeout]
        if pool:
            if not delay >= 0:
                raise SimulationError(f"delay {delay!r} is not >= 0")
            self.pool_hits += 1
            t = pool.pop()
            t.delay = delay
            t._value = value
            t._flushed = False
            # _settled/_ok/_scheduled were left True by the recycler; the
            # schedule below mirrors _schedule exactly.
            now = self._now
            when = now + delay
            if when == now:
                self._fifo.append(t)
            else:
                self._seq = seq = self._seq + 1
                heappush(self._heap, (when, seq, t))
            return t
        self.pool_misses += 1
        return Timeout(self, delay, value)

    def process(self, generator: Generator, label: str = "") -> Process:
        return Process(self, generator, label=label)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if not delay >= 0:  # also rejects NaN, which no comparison orders
            raise SimulationError(f"delay {delay!r} is not >= 0")
        if event._scheduled:
            return
        event._scheduled = True
        # Routed by the due time, not by `delay == 0`: a positive delay
        # that underflows (5.0 + 1e-30 == 5.0) is due now all the same,
        # and on the heap it would overtake the FIFO.
        now = self._now
        when = now + delay
        if when == now:
            self._fifo.append(event)
        else:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (when, seq, event))

    def schedule_at(self, event: Event, when: float) -> Event:
        """Arm a caller-owned ``event`` to fire at the absolute instant ``when``.

        The event fires like a timeout (succeeded, value ``None``) and may
        be armed again once it has fired, so a caller that knows *when*
        its next occurrence is due — a link whose delivery instant is
        arithmetic on a busy-until clock — keeps one event for its whole
        life instead of drawing two timeouts per occurrence.  ``when`` is
        taken as computed: ``timeout(when - now)`` would round it again.
        Callbacks are the caller's to set before each arming (the pop
        detaches them when the event fires).
        """
        now = self._now
        if not when >= now:  # also rejects NaN
            raise SimulationError(f"instant {when!r} is not >= now ({now!r})")
        if event._scheduled and not event._flushed:
            raise SimulationError(f"event {event!r} is already scheduled")
        event._settled = event._ok = event._scheduled = True
        event._flushed = False
        if when == now:
            self._fifo.append(event)
        else:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (when, seq, event))
        return event

    def _schedule_kick(self, process: Process, ok: bool = True, value: Any = None) -> None:
        """Schedule a pooled direct-resume marker at the current instant.

        ``ok`` / ``value`` are the outcome it delivers (the default is a
        boot or an unpark).  Takes the same position (after everything
        already scheduled for now) the old kick events took, so
        resumption order is unchanged."""
        pool = self._kick_pool
        if pool:
            kick = pool.pop()
        else:
            kick = _Kick(self)
        kick.process = process
        kick._ok = ok
        kick._value = value
        self._fifo.append(kick)

    def unpark(self, process: Process) -> None:
        """Resume ``process``, parked on :attr:`parked`, at the current instant.

        Its kick takes the FIFO slot a ``succeed()`` of the event it
        would otherwise have waited on takes: after everything already
        due now, before whatever is scheduled later.  Until it fires the
        process waits on the kick, so an interrupt drops it and resumes
        the process once, with the :class:`Interrupt`.

        A park with a deadline is a yielded ``timeout(delay, env.parked)``:
        it resumes at its deadline or here, whichever comes first.  An
        early wake leaves the timeout on the schedule with no waiter, so
        it still pops, at its deadline, and resumes nobody.  A no-op for
        a process that is not parked — running, waiting on anything else
        (a plain timeout included), already unparked or finished.
        """
        waited = process._waiting_on
        if waited is self.parked or (
            waited.__class__ is Timeout and waited._value is self.parked and waited._waiter is process
        ):
            waited._waiter = None
            self._schedule_kick(process)
            process._waiting_on = self._fifo[-1]

    def step(self) -> None:
        """Pop and fire the next event; advances the clock."""
        if not (self._fifo or self._heap):
            raise SimulationError("step() on empty schedule")
        self._drain(_FOREVER, 1)

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if self._fifo:
            return self._now
        return self._heap[0][0] if self._heap else _FOREVER

    @frozen_heap()
    def run(self, until: float | Event | None = None) -> Any:
        """Run until a time, an event, or schedule exhaustion.

        * ``until`` is a number → run until the clock reaches it.
        * ``until`` is an :class:`Event` → run until it fires; returns its
          value (raises if it failed).
        * ``until`` is None (or infinite) → run until no events remain;
          the clock stays at the last event.

        Raises :class:`SimulationError` when a process fails and nothing
        consumes the failure (see :meth:`_drain`); being the ``until``
        of a run counts as consuming it.
        """
        if isinstance(until, Event):
            if not until._flushed:
                until.add_callback(_awaited)
            while not until._flushed:
                if not (self._fifo or self._heap):
                    raise SimulationError("schedule exhausted before until-event fired")
                self._drain(_FOREVER, 1)
            if not until._ok:
                raise until._value
            return until._value
        horizon = _FOREVER if until is None else float(until)
        if not horizon >= self._now:  # also rejects NaN
            raise SimulationError(f"until {horizon!r} is not >= now ({self._now!r})")
        self._drain(horizon, -1)
        if horizon < _FOREVER:  # a clock at inf would make every later event due at inf
            self._now = horizon
        return None

    def _drain(self, horizon: float, budget: int) -> None:
        """Pop and fire what is due by ``horizon``, ``budget`` events at most.

        The kernel's one pop-and-fire body; :meth:`run` and :meth:`step`
        only choose its bounds (a negative ``budget`` is no bound).  The
        next event is the FIFO head, unless the heap's top is due now
        (see the class docstring).  The event list, free lists and
        counters are hoisted into locals, and so is that heap test:
        nothing is pushed onto the heap due now, so whether its top
        precedes the FIFO can only change when the heap is popped.
        """
        now = self._now
        fifo = self._fifo
        popleft = fifo.popleft
        heap = self._heap
        pools_get = self._pools.get
        kick_cls = _Kick
        limit = _POOL_LIMIT
        refcount = getrefcount
        pop = heappop
        popped = 0
        heap_first = bool(heap) and heap[0][0] <= now
        try:
            while popped != budget:
                if fifo and not heap_first:
                    event = popleft()
                elif heap and heap[0][0] <= horizon:
                    when, _seq, event = pop(heap)
                    if when > now:
                        self._now = now = when
                    elif when < now - 1e-12:
                        raise SimulationError("event scheduled in the past")
                    heap_first = bool(heap) and heap[0][0] <= now
                else:
                    break
                popped += 1
                cls = event.__class__
                if cls is kick_cls:
                    event.fire()
                    continue
                event._flushed = True
                callbacks = event.callbacks
                if callbacks is not None:
                    event.callbacks = None  # a callback added from here on is too late
                waiter = event._waiter
                if waiter is not None:
                    event._waiter = None
                    waiter._resume(event)
                elif callbacks is None and not event._ok and isinstance(event, Process):
                    # Nothing dies silently: nobody will ever read this
                    # failure, so it ends the run instead of the process.
                    raise SimulationError(
                        f"process {event.label!r} failed at t={now!r} with nothing "
                        f"waiting on it: {event._value!r}"
                    ) from event._value
                if callbacks is not None:
                    for cb in callbacks:
                        cb(event)
                # Recycle provably-unreferenced hot-path events: refcount 2
                # means only this frame's local and getrefcount's argument
                # hold the object, so no generator or model structure can
                # ever observe it again — reuse is invisible.  The
                # exact-class pool lookup keeps every subclass (processes,
                # store and resource requests) out.
                if refcount(event) == 2:
                    pool = pools_get(cls)
                    if pool is not None and len(pool) < limit:
                        event._recycle()
                        pool.append(event)
        finally:
            self.events_popped += popped
