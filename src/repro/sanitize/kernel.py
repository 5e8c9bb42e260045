"""Kernel sanitizers: free-list poisoning + clock/heap-order assertions.

The kernel recycles spent timeouts through a per-environment free list,
guarded by a refcount-2 check in ``Environment._drain`` (only the drain
frame and the refcount probe itself hold the object, so reuse is
supposed to be invisible).  That guard is sound for CPython refcounting but
*assumes* no C-level cache, debugger hook, or future refactor keeps an
untracked reference.  Under ``REPRO_SAN=1`` this module gives every new
environment auditing *containers* and wraps the kernel's one
pop-and-fire body; no kernel code is repeated here:

* the free list is a :class:`_PoisoningPool`: a timeout appended
  (recycled) has its ``__class__`` swapped for the *poisoned* twin of
  :class:`~repro.simulation.core.Timeout` (same slot layout, every entry
  point raises :class:`~repro.sanitize.SanitizerError`) and gets it back
  the moment the factory pops (re-issues) it — so pooling behaviour,
  pool counters and event identity stay bit-identical while any
  use-after-recycle detonates at the offending line;
* the current-instant FIFO is a :class:`_StampedFifo`: the kernel's FIFO
  carries no sequence numbers, so its appends draw from the heap's
  counter and every entry has exactly the ``(time, seq)`` key
  a single heap would have given it — a sanitized run is a run-time
  proof that the two-tier order *is* the heap order;
* ``_drain`` is wrapped to pop one event at a time: the heap's top is
  read before each pop and the FIFO reports what it popped, so *every*
  pop is checked for a poisoned event, a clock that moved backwards and
  a key that sorts before the previous pop's.

The originals are kept for :func:`uninstall` (test support).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sanitize import SanitizerError

# Bound by install(): importing repro.simulation.core at module top
# would re-enter the partially-initialised package when REPRO_SAN=1
# triggers installation from repro.simulation's own __init__.
_core: Any = None

# -- the poisoned twin ---------------------------------------------------------

#: The poisoned subclass of ``Timeout``, made by the first install() and
#: kept: an environment built while installed goes on poisoning after it.
_poisoned: Any = None


def _poisoned_twin(cls: type) -> type:
    """A subclass of ``cls`` whose every entry point raises.

    ``__slots__ = ()`` keeps the memory layout identical, so
    ``__class__`` assignment in both directions is legal and free.
    """

    def _raiser(name: str):
        def raise_use_after_recycle(self, *args: Any, **kwargs: Any):
            raise SanitizerError(
                f"use-after-recycle: `{name}` touched on a pooled "
                f"{cls.__name__} — a reference to this event survived its "
                "recycle into the environment free list (the kernel's "
                "refcount-2 guard was defeated)"
            )

        raise_use_after_recycle.__name__ = name
        return raise_use_after_recycle

    ns: dict[str, Any] = {"__slots__": ()}
    for name in ("succeed", "fail", "add_callback"):
        ns[name] = _raiser(name)
    for name in ("triggered", "ok", "value"):
        ns[name] = property(_raiser(name))
    ns["__repr__"] = lambda self: f"<poisoned pooled {cls.__name__}>"
    return type(f"_Poisoned{cls.__name__}", (cls,), ns)


class _PoisoningPool(list):
    """A free list whose entries are poisoned while they sit in it."""

    def append(self, event: Any) -> None:
        event.__class__ = _poisoned
        super().append(event)

    def pop(self) -> Any:
        event = super().pop()
        event.__class__ = _core.Timeout
        return event


# -- every pop audited -----------------------------------------------------------


class _StampedFifo(deque):
    """The current-instant FIFO, stamping each entry with its heap key.

    ``append`` draws the next number from ``env._seq`` — the counter heap
    pushes draw from — and records it with the instant, so the entry
    carries the ``(time, seq)`` it would have had on a single
    heap; ``popleft`` checks the entry against that key before the
    kernel fires it.  Sequence numbers are not observable, so the run is
    unchanged.  The environment has ``__slots__``, so what the audit
    remembers between pops lives here too: ``last_key``, the key of the
    latest pop from either tier, and ``popped``, set by ``popleft`` so
    the ``_drain`` wrapper can tell which tier a pop came from.
    """

    def __init__(self, env: Any):
        super().__init__()
        self.env = env
        self.stamps: deque[tuple[float, int]] = deque()
        self.last_key: tuple[float, int] | None = None
        self.popped = False

    def append(self, event: Any) -> None:
        env = self.env
        env._seq = seq = env._seq + 1
        self.stamps.append((env._now, seq))
        super().append(event)

    def popleft(self) -> Any:
        event = super().popleft()
        when, seq = self.stamps.popleft()
        self.last_key = self.check((when, seq), event)
        self.popped = True
        return event

    def check(self, key: tuple[float, int], event: Any) -> tuple[float, int]:
        """A scheduled entry, next to pop or not: not stale, not recycled,
        not sorting before what was popped last.  Returns ``key``."""
        now = self.env._now
        if key[0] < now - 1e-12:
            raise SanitizerError(
                f"simulation clock moved backwards: popped t={key[0]!r} at now={now!r}"
            )
        if event.__class__ is _poisoned:
            raise SanitizerError(
                f"poisoned event popped from the schedule: {event!r} was "
                "scheduled after being recycled into a free list"
            )
        if self.last_key is not None and key < self.last_key:
            raise SanitizerError(
                f"heap total order violated: {key} scheduled behind {self.last_key}, "
                "the last pop — the (time, seq) ordering the "
                "determinism digests rest on no longer holds"
            )
        return key


def _san_init(self) -> None:
    _originals["__init__"](self)
    self._fifo = _StampedFifo(self)
    self._timeout_pool = _PoisoningPool()


def _san_drain(self, horizon: float, budget: int) -> None:
    """The kernel's ``_drain``, one audited pop per call of it.

    A heap top that is stale, poisoned or behind the last pop is wrong
    whichever tier the next pop comes from, so it is checked before the
    pop; the FIFO checks its own entry as it pops it.
    """
    drain = _originals["_drain"]
    fifo = self._fifo
    heap = self._heap
    while budget:
        budget -= 1
        if heap:
            # through the heap only: a local holding the event would be the
            # third reference that keeps the pop from recycling it
            key = fifo.check(heap[0][:2], heap[0][2])
        fifo.popped = False
        before = self.events_popped
        drain(self, horizon, 1)
        if self.events_popped == before:
            break  # nothing due by the horizon
        if not fifo.popped:
            fifo.last_key = key  # the pop came off the heap


_PATCHES = {
    "__init__": _san_init,
    "_drain": _san_drain,
}
_originals: dict[str, Any] = {}


def installed() -> bool:
    return bool(_originals)


def install() -> None:
    """Wrap the kernel's pop seam and hand out auditing containers (idempotent).

    Only environments built from here on get the stamping FIFO and the
    poisoning free list the wrapper reads; install before constructing the
    ones to be audited (``REPRO_SAN=1`` installs at import).
    """
    global _core, _poisoned
    if _originals:
        return
    from repro.simulation import core

    _core = core
    if _poisoned is None:
        _poisoned = _poisoned_twin(core.Timeout)
    for name, fn in _PATCHES.items():
        _originals[name] = getattr(_core.Environment, name)
        setattr(_core.Environment, name, fn)


def uninstall() -> None:
    """Restore the original kernel entry points (test support).

    An environment built while installed keeps its containers, which go
    on poisoning, healing and auditing FIFO pops on their own; tests
    should discard sanitized environments after uninstalling.
    """
    for name, fn in _originals.items():
        setattr(_core.Environment, name, fn)
    _originals.clear()
