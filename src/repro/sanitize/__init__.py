"""Opt-in runtime sanitizers for the simulation kernel and DSPS layer.

Set ``REPRO_SAN=1`` and the package hardens the assumptions the static
analysis cannot prove at runtime:

* **free-list poisoning** (:mod:`repro.sanitize.kernel`) — the kernel's
  refcount-2 recycle guard (``simulation/core.py``) assumes no model
  reference survives the pop; while a timeout sits in the free list its
  class is swapped for a poisoned twin whose every entry point raises
  :class:`SanitizerError`, so a stale reference fails loudly at the use
  site instead of silently reading a recycled object;
* **clock/heap-order assertions** (same module) — every pop checks the
  simulation clock never moves backwards and that the ``(time, seq)``
  total order the digest contract rests on holds;
* **cross-HAU state isolation** (:mod:`repro.sanitize.state_guard`) —
  writes to an operator's declared ``state_attrs`` must come from the
  HAU that hosts it, tracked through a generator trampoline around the
  runtime's process loops;
* **snapshot aliasing** (same module) — operator snapshots share payload
  values with the live dataflow, so each snapshot is fingerprinted when
  taken and checked again when restored;
* **iteration-order canary** (``python -m repro.sanitize``) — runs the
  pin gate under two ``PYTHONHASHSEED`` values and requires
  bit-identical digests, catching hash-order dependence end to end.

Zero-overhead contract: installation happens once at import time (the
``repro.simulation`` / ``repro.dsps`` package inits call the
``maybe_install_*`` hooks below); when ``REPRO_SAN`` is unset nothing is
patched — no flag checks ride on the per-event hot path.  Under
``REPRO_SAN=1`` pooling behaviour stays bit-identical (same pool
hits/misses, same ``events_popped``), so digests and goldens hold.
"""

from __future__ import annotations

import os


class SanitizerError(AssertionError):
    """A runtime invariant the sanitizers guard was violated."""


def enabled() -> bool:
    """True when ``REPRO_SAN`` requests sanitized runs."""
    return os.environ.get("REPRO_SAN", "") not in ("", "0")


def install_kernel() -> None:
    """Patch the kernel sanitizers in (idempotent)."""
    from repro.sanitize import kernel

    kernel.install()


def install_state_guard() -> None:
    """Patch the DSPS state-isolation guard in (idempotent)."""
    from repro.sanitize import state_guard

    state_guard.install()


def maybe_install_kernel() -> None:
    """Import-time hook for ``repro.simulation``: install iff enabled."""
    if enabled():
        install_kernel()


def maybe_install_state_guard() -> None:
    """Import-time hook for ``repro.dsps``: install iff enabled."""
    if enabled():
        install_state_guard()


def uninstall() -> None:
    """Restore every patched entry point (test support)."""
    import sys

    kernel = sys.modules.get("repro.sanitize.kernel")
    if kernel is not None:
        kernel.uninstall()
    state_guard = sys.modules.get("repro.sanitize.state_guard")
    if state_guard is not None:
        state_guard.uninstall()


__all__ = [
    "SanitizerError",
    "enabled",
    "install_kernel",
    "install_state_guard",
    "maybe_install_kernel",
    "maybe_install_state_guard",
    "uninstall",
]
