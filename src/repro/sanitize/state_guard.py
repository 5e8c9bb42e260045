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

The same installation arms the **snapshot-alias guard**, the run-time
proof of the "payloads are values" rule (:mod:`repro.dsps.operator`): a
snapshot shares the payload objects the live dataflow still holds, so
``Operator.snapshot`` records a content fingerprint of every attribute
it captured and ``Operator.restore`` recomputes it — a payload written
in place between the checkpoint and the recovery that reloads it raises
:class:`~repro.sanitize.SanitizerError` naming HAU, operator and
attribute, instead of silently restoring a state the checkpoint never
saw.  An operator that overrides ``snapshot()`` to build its own dict of
private copies is not checked.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
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


class _FingerprintedSnapshot(dict):
    """``Operator.snapshot()``'s dict plus what its values hashed to when
    taken; the fingerprint lives and dies with the snapshot it describes."""

    __slots__ = ("fingerprint",)
    fingerprint: dict[str, bytes]


def _fingerprint(value: Any) -> bytes:
    return hashlib.blake2b(pickle.dumps(value), digest_size=16).digest()


def _guarded_snapshot(self) -> dict[str, Any]:
    snap = _FingerprintedSnapshot(_originals["snapshot"](self))
    snap.fingerprint = {attr: _fingerprint(value) for attr, value in snap.items()}
    return snap


def _guarded_restore(self, snap: dict[str, Any]) -> None:
    if isinstance(snap, _FingerprintedSnapshot):
        for attr, taken in snap.fingerprint.items():
            if _fingerprint(snap[attr]) != taken:
                ctx = getattr(self, "ctx", None)
                raise SanitizerError(
                    f"snapshot alias mutated: {type(self).__name__}.{attr} of "
                    f"HAU {ctx.hau_id if ctx is not None else None!r} is being "
                    "restored from a snapshot whose content changed after it "
                    "was taken — snapshots share payload values with the live "
                    "dataflow, so a payload must not be written in place "
                    "(build a new one, or override snapshot() to copy)"
                )
    _originals["restore"](self, snap)


_originals: dict[str, Any] = {}
_SETATTR_KEY = "Operator.__setattr__"
_SNAPSHOT_PATCHES = {"snapshot": _guarded_snapshot, "restore": _guarded_restore}


def installed() -> bool:
    return bool(_originals)


def install() -> None:
    """Wrap the runtime loops, guard operator state and snapshots (idempotent)."""
    # imported first: under REPRO_SAN=1 the first import of repro.dsps
    # installs the guard itself, and that must not happen half-way through
    from repro.dsps.hau import HAURuntime
    from repro.dsps.operator import Operator

    if _originals:
        return
    for name in _WRAPPED_LOOPS:
        _originals[name] = getattr(HAURuntime, name)
        setattr(HAURuntime, name, _wrap_loop(_originals[name]))
    # Operator defines no __setattr__ of its own; remember whether one
    # existed in the class dict so uninstall can delete rather than
    # restore.
    _originals[_SETATTR_KEY] = Operator.__dict__.get("__setattr__")
    Operator.__setattr__ = _guarded_setattr
    for name, guarded in _SNAPSHOT_PATCHES.items():
        _originals[name] = getattr(Operator, name)
        setattr(Operator, name, guarded)


def uninstall() -> None:
    """Remove the wrappers and both operator guards (test support)."""
    if not _originals:
        return
    from repro.dsps.hau import HAURuntime
    from repro.dsps.operator import Operator

    for name in _WRAPPED_LOOPS:
        setattr(HAURuntime, name, _originals[name])
    for name in _SNAPSHOT_PATCHES:
        setattr(Operator, name, _originals[name])
    prior = _originals[_SETATTR_KEY]
    if prior is None:
        del Operator.__setattr__
    else:
        Operator.__setattr__ = prior
    _originals.clear()
    _hau_stack.clear()
