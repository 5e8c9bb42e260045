"""Kernel sanitizers: free-list poisoning + clock/heap-order assertions.

The kernel recycles hot-path events through per-environment free lists,
guarded by a refcount-2 check in ``Environment.step`` (only the step
frame and ``getrefcount`` itself hold the object, so reuse is supposed
to be invisible).  That guard is sound for CPython refcounting but
*assumes* no C-level cache, debugger hook, or future refactor keeps an
untracked reference.  Under ``REPRO_SAN=1`` this module replaces the
pool-touching entry points (``step`` / ``event`` / ``timeout`` /
``acquire``, plus ``run``, whose inlined fast loop would otherwise
bypass the audited step, and ``__init__``, which gives the environment a
stamping FIFO) with copies that additionally:

* swap a recycled event's ``__class__`` for a generated *poisoned* twin
  (same slot layout, every entry point raises
  :class:`~repro.sanitize.SanitizerError`) while it sits in the pool,
  and swap it back the moment a factory re-issues it — so pooling
  behaviour, pool counters and event identity stay bit-identical while
  any use-after-recycle detonates at the offending line;
* assert the simulation clock never moves backwards and that *every*
  pop — heap or current-instant FIFO — respects the ``(time, priority,
  seq)`` total order the determinism digests rest on.  The kernel's FIFO
  carries no sequence numbers, so under the sanitizer its appends draw
  from the heap's counter (:class:`_StampedFifo`): every entry then has
  exactly the key a single heap would have given it, and a sanitized run
  is a run-time proof that the two-tier order *is* the heap order.

The originals are kept for :func:`uninstall` (test support).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from heapq import heappop, heappush
from typing import Any

from sys import getrefcount

from repro.sanitize import SanitizerError

# Bound by install(): importing repro.simulation.core at module top
# would re-enter the partially-initialised package when REPRO_SAN=1
# triggers installation from repro.simulation's own __init__.
_core: Any = None

# -- poisoned twins ------------------------------------------------------------

#: original class -> generated poisoned subclass
_POISONED: dict[type, type] = {}
#: the reverse set, for the heap defence check in the sanitized step
_POISON_CLASSES: set[type] = set()

_BLOCKED_METHODS = ("succeed", "fail", "add_callback", "_recycle")
_BLOCKED_PROPS = ("triggered", "ok", "value")


def poisoned_class(cls: type) -> type:
    """The poisoned twin of a pooled event class (generated once).

    ``__slots__ = ()`` keeps the memory layout identical, so
    ``__class__`` assignment in both directions is legal and free.
    """
    twin = _POISONED.get(cls)
    if twin is not None:
        return twin

    def _raiser(name: str):
        def raise_use_after_recycle(self, *args: Any, **kwargs: Any):
            raise SanitizerError(
                f"use-after-recycle: `{name}` touched on a pooled "
                f"{cls.__name__} — a reference to this event survived its "
                "recycle into the environment free list (the refcount-2 "
                "guard in Environment.step was defeated)"
            )

        raise_use_after_recycle.__name__ = name
        return raise_use_after_recycle

    ns: dict[str, Any] = {"__slots__": ()}
    for name in _BLOCKED_METHODS:
        if hasattr(cls, name):
            ns[name] = _raiser(name)
    for name in _BLOCKED_PROPS:
        if hasattr(cls, name):
            ns[name] = property(_raiser(name))
    ns["__repr__"] = lambda self: f"<poisoned pooled {cls.__name__}>"
    twin = type(f"_Poisoned{cls.__name__}", (cls,), ns)
    _POISONED[cls] = twin
    _POISON_CLASSES.add(twin)
    return twin


# -- heap total-order tracking -------------------------------------------------

# Environment has __slots__ (and no __weakref__), so per-environment
# sanitizer state lives here, keyed by id().  Entries hold the
# environment strongly to rule out id reuse; the cap bounds the leak to
# the most recently stepped environments (an evicted env just loses one
# comparison on its next pop).
_ORDER_CAP = 64
_order_state: "OrderedDict[int, tuple[Any, tuple[float, int, int]]]" = OrderedDict()


def _check_order(env: Any, key: tuple[float, int, int]) -> None:
    k = id(env)
    entry = _order_state.get(k)
    if entry is not None and entry[0] is env and key < entry[1]:
        raise SanitizerError(
            f"heap total order violated: popped {key} after {entry[1]} — "
            "the (time, priority, seq) ordering the determinism digests "
            "rest on no longer holds"
        )
    _order_state[k] = (env, key)
    _order_state.move_to_end(k)
    while len(_order_state) > _ORDER_CAP:
        _order_state.popitem(last=False)


class _StampedFifo(deque):
    """The current-instant FIFO, stamping each entry with its heap key.

    ``append`` draws the next number from ``env._seq`` — the counter heap
    pushes draw from — and records it with the instant, so the entry
    carries the ``(time, NORMAL, seq)`` it would have had on a single
    heap; the sanitized ``step`` pops ``stamps`` along with the entry.
    Sequence numbers are not observable, so the run is unchanged.
    """

    def __init__(self, env: Any):
        super().__init__()
        self.env = env
        self.stamps: deque[tuple[float, int]] = deque()

    def append(self, event: Any) -> None:
        env = self.env
        env._seq = seq = env._seq + 1
        self.stamps.append((env._now, seq))
        super().append(event)


# -- sanitized entry points ----------------------------------------------------
# Each is a line-for-line copy of the original (simulation/core.py) plus
# the poison/assert additions; pool counters and the event list are
# touched identically so sanitized runs stay digest-clean.


def _san_init(self) -> None:
    _originals["__init__"](self)
    self._fifo = _StampedFifo(self)


def _san_step(self) -> None:
    fifo = self._fifo
    heap = self._heap
    now = self._now
    normal = _core.NORMAL
    if fifo and not (heap and heap[0][0] <= now and heap[0][1] == normal):
        event = fifo.popleft()
        when, seq = fifo.stamps.popleft()
        prio = normal
    elif heap:
        when, prio, seq, event = heappop(heap)
    else:
        raise _core.SimulationError("step() on empty schedule")
    if when < now - 1e-12:
        raise SanitizerError(
            f"simulation clock moved backwards: popped t={when!r} at now={now!r}"
        )
    _check_order(self, (when, prio, seq))
    if when > now:
        self._now = when
    self.events_popped += 1
    cls = event.__class__
    if cls is _core._Kick:
        event.fire()
        return
    if cls in _POISON_CLASSES:
        raise SanitizerError(
            f"poisoned event popped from the schedule: {event!r} was "
            "scheduled after being recycled into a free list"
        )
    if not event._ok and isinstance(event._value, SanitizerError):
        # a guard that tripped inside a process (the state guards do) would
        # otherwise die with that process: the kernel drops a failure nobody
        # waits on, and the run would carry on without the HAU or recovery
        raise event._value
    event._flushed = True
    callbacks = event.callbacks
    if callbacks is not None:
        event.callbacks = None  # a callback added from here on is too late
    waiter = event._waiter
    if waiter is not None:
        event._waiter = None
        waiter._resume(event)
    if callbacks is not None:
        for cb in callbacks:
            cb(event)
    if getrefcount(event) == 2:
        pool = self._pools.get(cls)
        if pool is not None and len(pool) < _core._POOL_LIMIT:
            event._recycle()
            event.__class__ = poisoned_class(cls)
            pool.append(event)


def _san_event(self, name: str = ""):
    pool = self._pools[_core.Event]
    if pool:
        self.pool_hits += 1
        ev = pool.pop()
        ev.__class__ = _core.Event
        ev.name = name
        return ev
    self.pool_misses += 1
    return _core.Event(self, name=name)


def _san_timeout(self, delay: float, value: Any = None):
    pool = self._pools[_core.Timeout]
    if pool:
        if not delay >= 0:
            raise _core.SimulationError(f"delay {delay!r} is not >= 0")
        self.pool_hits += 1
        t = pool.pop()
        t.__class__ = _core.Timeout
        t.delay = delay
        t._value = value
        t._flushed = False
        now = self._now
        when = now + delay
        if when == now:
            self._fifo.append(t)
        else:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (when, _core.NORMAL, seq, t))
        return t
    self.pool_misses += 1
    return _core.Timeout(self, delay, value)


def _san_acquire(self, cls: type):
    pool = self._pools.get(cls)
    if pool:
        self.pool_hits += 1
        ev = pool.pop()
        ev.__class__ = cls
        return ev
    self.pool_misses += 1
    return None


def _san_run(self, until: Any = None) -> Any:
    # The pristine run() inlines the pop/fire loop for speed, which would
    # bypass the audited step; the generic stepwise loop drives the
    # patched step() for every pop, so each one passes the poison and
    # total-order checks.  Semantics (and digests) are identical.
    with _core.frozen_heap():
        return _core.Environment._run_stepwise(self, until)


_PATCHES = {
    "__init__": _san_init,
    "step": _san_step,
    "event": _san_event,
    "timeout": _san_timeout,
    "acquire": _san_acquire,
    "run": _san_run,
}
_originals: dict[str, Any] = {}


def installed() -> bool:
    return bool(_originals)


def install() -> None:
    """Swap the kernel entry points for the sanitized copies (idempotent).

    Environments built from here on get the stamping FIFO the sanitized
    ``step`` reads; install before constructing the ones to be audited
    (``REPRO_SAN=1`` installs at import).
    """
    global _core
    if _originals:
        return
    from repro.simulation import core

    _core = core
    for name, fn in _PATCHES.items():
        _originals[name] = getattr(_core.Environment, name)
        setattr(_core.Environment, name, fn)


def uninstall() -> None:
    """Restore the original kernel entry points (test support).

    Events still poisoned inside live pools are healed by clearing the
    pools would be wrong (counters); instead they heal lazily — the
    original factories never see them because pools drain through the
    same ``pool.pop()`` path, so tests should discard sanitized
    environments after uninstalling.
    """
    for name, fn in _originals.items():
        setattr(_core.Environment, name, fn)
    _originals.clear()
    _order_state.clear()
