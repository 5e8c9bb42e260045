"""Declarative state-size hints and the sampling estimator.

The paper's precompiler (§III-C1) scans C++ operator classes and emits a
``state_size()`` member that *samples* container elements (3 random
samples by default) instead of walking every element.  Developers can
hint a fixed ``element_size`` or explicit ``length``/``element_size``
expressions for opaque containers.

Here the same contract is expressed as :class:`StateHint` entries on the
operator class; :func:`estimate_state_size` implements the generated
function, including three-point sampling (first / middle / last, the
deterministic analogue of the paper's random samples).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

DEFAULT_SAMPLES = 3


@dataclass(frozen=True)
class StateHint:
    """How to size one state attribute.

    Exactly mirrors the paper's comment annotations:

    * ``element_size`` — every element has this fixed nominal size
      (``// state element_size=1024``).
    * ``length_fn`` / ``element_size_fn`` — explicit accessors for
      user-defined containers (``length="idx->count()"``).
    * ``samples`` — number of elements sampled when sizes vary
      (``// state sample=N``).
    """

    element_size: int | None = None
    length_fn: Callable[[Any], int] | None = None
    element_size_fn: Callable[[Any], int] | None = None
    samples: int = DEFAULT_SAMPLES


def nominal_size(value: Any) -> int:
    """Nominal byte size of one state element.

    Workload objects carry an explicit ``nominal_size`` attribute or a
    ``size`` field; plain scalars fall back to 8 bytes (a C++ double /
    pointer).  This is the declared-size convention of DESIGN.md.
    """
    explicit = getattr(value, "nominal_size", None)
    if explicit is not None:
        return int(explicit)
    explicit = getattr(value, "size", None)
    if isinstance(explicit, (int, float)) and not isinstance(explicit, bool):
        return int(explicit)
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, dict):
        return sum(nominal_size(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(nominal_size(v) for v in value)
    return 8


def _sample_container_size(container: Any, hint: StateHint) -> int:
    """The generated-code pattern: len * mean(sampled element sizes)."""
    try:
        length = len(container)
    except TypeError:
        return 0
    if length == 0:
        return 0
    if hint.element_size is not None:
        return length * hint.element_size
    # only a sampled estimate reads elements; lists and tuples index in place
    if isinstance(container, dict):
        elements: Any = list(container.values())
    elif isinstance(container, (list, tuple)):
        elements = container
    else:
        elements = list(container)
    n = max(1, min(hint.samples, length))
    # deterministic analogue of the paper's first/middle/last sampling
    idxs = sorted({0, length - 1, length // 2} if n >= 3 else {0, length - 1})
    idxs = list(idxs)[:n]
    sampled = [nominal_size(elements[i]) for i in idxs]
    return int(length * (sum(sampled) / len(sampled)))


def estimate_state_size(operator: Any) -> int:
    """Total estimated state size of an operator, in bytes.

    Walks ``operator.state_attrs``; for each attribute applies its
    :class:`StateHint` (if any) or the default sampled estimate.  Unknown
    (non-container, non-hinted) attributes contribute their nominal size,
    matching the precompiler's "ignore what it cannot see" behaviour only
    for genuinely opaque objects.
    """
    total = 0
    hints = getattr(operator, "state_hints", {}) or {}
    for attr in getattr(operator, "state_attrs", ()):
        value = getattr(operator, attr, None)
        if value is None:
            continue
        hint = hints.get(attr)
        if hint is not None and hint.length_fn is not None:
            length = hint.length_fn(value)
            if length <= 0:
                continue
            if hint.element_size_fn is not None:
                total += length * hint.element_size_fn(value)
            elif hint.element_size is not None:
                total += length * hint.element_size
            continue
        if isinstance(value, (list, tuple, dict, set)):
            total += _sample_container_size(value, hint or StateHint())
        elif isinstance(value, (int, float, bool)):
            total += 8
        elif isinstance(value, (bytes, bytearray, str)):
            total += len(value)
        else:
            total += nominal_size(value)
    return total
