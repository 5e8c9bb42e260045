"""Cross-HAU state-isolation guard.

The determinism contract (operator snapshots replayable from simulation
state) silently assumes each operator's state is mutated only by the HAU
that hosts it.  Nothing enforces that: a scheme, a test harness, or a
mis-wired graph can share an operator instance between HAUs and the runs
still "work" — until recovery restores one HAU's snapshot over another's
live state.

Under ``REPRO_SAN=1`` this module:

* wraps the HAU runtime's process-loop generator methods
  (``_main_loop`` / ``_source_loop``) in a trampoline
  that pushes the host's ``hau_id`` around **each resumption** of the
  generator (a plain push/pop around creation would be wrong — the
  kernel interleaves generators, they do not finish LIFO);
* installs an ``Operator.__setattr__`` guard: a write to a declared
  ``state_attrs`` attribute while some *other* HAU's loop is running
  raises :class:`~repro.sanitize.SanitizerError` at the write site.

Writes outside any tracked loop (setup, recovery drivers, tests
constructing operators) are unconstrained — the guard only fires on a
provable cross-host mutation.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.sanitize import SanitizerError

# The innermost tracked HAU at the current instant.  A list, not a
# single slot: a wrapped generator can (transitively) construct and
# drive another wrapped generator within one resumption.
_hau_stack: list[str] = []

_WRAPPED_LOOPS = ("_main_loop", "_source_loop")


def current_hau() -> str | None:
    """The hau_id whose loop is executing right now, or None."""
    return _hau_stack[-1] if _hau_stack else None


class _HauTrampoline:
    """Generator proxy tracking which HAU's code is on the stack.

    The kernel only needs the generator protocol's ``send`` / ``throw``
    / ``close``; each resumption brackets the delegate with a push/pop
    of the owning ``hau_id``, so nested ``yield from`` chains (process
    loop -> scheme hook -> emit) are attributed to their host while
    *other* HAUs' interleaved resumptions are not.
    """

    __slots__ = ("_gen", "_hau_id")

    def __init__(self, gen: Any, hau_id: str):
        self._gen = gen
        self._hau_id = hau_id

    def send(self, value: Any) -> Any:
        _hau_stack.append(self._hau_id)
        try:
            return self._gen.send(value)
        finally:
            _hau_stack.pop()

    def throw(self, exc: BaseException) -> Any:
        _hau_stack.append(self._hau_id)
        try:
            return self._gen.throw(exc)
        finally:
            _hau_stack.pop()

    def close(self) -> None:
        self._gen.close()

    def __iter__(self) -> "_HauTrampoline":
        return self

    def __next__(self) -> Any:
        return self.send(None)


def _wrap_loop(method: Any) -> Any:
    @functools.wraps(method)
    def wrapper(self, *args: Any, **kwargs: Any) -> _HauTrampoline:
        return _HauTrampoline(method(self, *args, **kwargs), self.hau_id)

    wrapper._repro_san_original = method
    return wrapper


def _guarded_setattr(self, name: str, value: Any) -> None:
    if name in type(self).state_attrs and _hau_stack:
        ctx = getattr(self, "ctx", None)
        owner = ctx.hau_id if ctx is not None else None
        running = _hau_stack[-1]
        if owner is not None and running != owner:
            raise SanitizerError(
                f"cross-HAU state write: {type(self).__name__}.{name} belongs "
                f"to HAU {owner!r} but was written while HAU {running!r} was "
                "running — operator state must only be mutated by its host "
                "(shared operator instance, or a scheme reaching across HAUs)"
            )
    object.__setattr__(self, name, value)


_originals: dict[str, Any] = {}
_SETATTR_KEY = "Operator.__setattr__"


def installed() -> bool:
    return bool(_originals)


def install() -> None:
    """Wrap the runtime loops and guard operator state (idempotent)."""
    if _originals:
        return
    from repro.dsps.hau import HAURuntime
    from repro.dsps.operator import Operator

    for name in _WRAPPED_LOOPS:
        _originals[name] = getattr(HAURuntime, name)
        setattr(HAURuntime, name, _wrap_loop(_originals[name]))
    # Operator defines no __setattr__ of its own; remember whether one
    # existed in the class dict so uninstall can delete rather than
    # restore.
    _originals[_SETATTR_KEY] = Operator.__dict__.get("__setattr__")
    Operator.__setattr__ = _guarded_setattr


def uninstall() -> None:
    """Remove the wrappers and the setattr guard (test support)."""
    if not _originals:
        return
    from repro.dsps.hau import HAURuntime
    from repro.dsps.operator import Operator

    for name in _WRAPPED_LOOPS:
        setattr(HAURuntime, name, _originals[name])
    prior = _originals[_SETATTR_KEY]
    if prior is None:
        del Operator.__setattr__
    else:
        Operator.__setattr__ = prior
    _originals.clear()
    _hau_stack.clear()
