"""Operator model: user processing logic hosted inside an HAU.

Mirrors the paper's C++ operator class (§III-C1, Fig. 9): developers
implement per-port processing; operator state is the instance's declared
state attributes; ``state_size()`` is derived mechanically.  Here the
"precompiler" is replaced by :mod:`repro.state` hints.

Determinism contract: given the same input tuples in the same per-port
order, an operator must produce the same outputs and state.  Meteor
Shower's recovery (global rollback + source replay) relies on this to
regenerate post-token tuples.

Payloads are values.  A :class:`~repro.dsps.tuples.DataTuple` and a
:class:`~repro.apps.base.SizedPayload` are immutable once emitted: the
same object sits in the sender's preservation buffer, on the channel, in
every consumer a dispatcher fans it out to and in any pool that retains
it, so nobody may write to one in place.  A snapshot is the host-side
half of the paper's forked copy-on-write child: :meth:`Operator.snapshot`
copies the *containers* of the declared state (lists, dicts, deques,
sets, nested) and shares the payload values in them — both classes answer
``copy.deepcopy`` with ``self`` — so a pool of N payloads costs one list
copy, not N object graphs.  Anything else an operator keeps directly in
state (an ndarray accumulator, a dict of lists, a user class) still gets
a real copy.  An operator that does mutate payloads in place must
override :meth:`Operator.snapshot` to copy them itself; ``REPRO_SAN=1``
fingerprints every snapshot and fails the restore of one whose shared
values changed in between (:mod:`repro.sanitize.state_guard`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
import copy
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.dsps.tuples import DataTuple
from repro.simulation.rng import RngRegistry
from repro.state.spec import StateHint, estimate_state_size


@dataclass(slots=True)
class Emit:
    """One output produced by processing a tuple."""

    payload: Any
    size: int
    port: int = 0
    key: Any | None = None


@dataclass(slots=True)
class OperatorContext:
    """What an operator can see of its host at setup time."""

    hau_id: str
    rngs: RngRegistry

    @property
    def rng(self) -> np.random.Generator:
        """The host HAU's stream ``hau:<id>``, resolved on first read.

        The registry derives streams by name and memoises them, so every
        read returns the same generator and an operator that never draws
        (all of the bundled applications seed their own) costs none.
        """
        return self.rngs.stream(f"hau:{self.hau_id}")


# Default CPU cost model: a 2.3 GHz core moving/working a byte of tuple.
# ~50 MB/s of per-core tuple-processing throughput is in line with the
# paper's applications (image kernels on 1.7 GB VMs).
DEFAULT_COST_PER_BYTE = 1.0 / 50_000_000
DEFAULT_FIXED_COST = 20e-6  # per-tuple dispatch overhead


class Operator:
    """Base class for stream operators.

    Subclasses define ``state_attrs`` (names of instance attributes that
    constitute operator state) and optionally ``state_hints`` for sampled
    size estimation, then implement :meth:`on_tuple`.  A subclass that
    serialises its own state overrides :meth:`snapshot` and
    :meth:`restore` together, or its definition raises ``TypeError``:
    one without the other diverges recovery from the checkpointed state.
    """

    #: instance attribute names that make up the operator's state
    state_attrs: tuple[str, ...] = ()
    #: declarative size hints, keyed by attribute name
    state_hints: dict[str, StateHint] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if ("snapshot" in vars(cls)) != ("restore" in vars(cls)):
            present, missing = (
                ("snapshot", "restore") if "snapshot" in vars(cls) else ("restore", "snapshot")
            )
            raise TypeError(
                f"operator {cls.__name__} overrides `{present}` without `{missing}`: "
                "custom state serialisation must stay paired"
            )

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.ctx: OperatorContext | None = None

    # -- lifecycle -------------------------------------------------------------
    def setup(self, ctx: OperatorContext) -> None:
        """Called once when the hosting HAU starts (and again on restart)."""
        self.ctx = ctx

    # -- processing --------------------------------------------------------------
    def on_tuple(self, port: int, tup: DataTuple) -> list[Emit]:
        """Process one input tuple; return emissions."""
        raise NotImplementedError

    def processing_cost(self, tup: DataTuple) -> float:
        """Simulated CPU seconds to process ``tup``."""
        return DEFAULT_FIXED_COST + tup.size * DEFAULT_COST_PER_BYTE

    # -- state ---------------------------------------------------------------------
    def state_size(self) -> int:
        """Estimated state size in bytes (the paper's generated function)."""
        return estimate_state_size(self)

    def snapshot(self) -> dict[str, Any]:
        """Copy the declared state attributes, sharing payload values."""
        return {attr: copy.deepcopy(getattr(self, attr)) for attr in self.state_attrs}

    def restore(self, snap: dict[str, Any]) -> None:
        """Adopt a copy of ``snap``, which stays intact to be restored again."""
        for attr, value in snap.items():
            setattr(self, attr, copy.deepcopy(value))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


class SourceOperator(Operator):
    """An operator that generates the stream instead of consuming one.

    The HAU runtime drives :meth:`generate`, a Python generator yielding
    ``(inter_arrival_seconds, Emit)`` pairs.  Sources also participate in
    replay: after recovery the scheme re-injects preserved tuples, and the
    source resumes generation from where its checkpoint left off
    (``emitted_count`` is part of the source state).
    """

    state_attrs = ("emitted_count",)

    def __init__(self, name: str = ""):
        super().__init__(name)
        self.emitted_count = 0

    def generate(self) -> Iterable[tuple[float, Emit]]:
        """Yield (delay-before-emit, emission) pairs, indefinitely."""
        raise NotImplementedError

    def on_tuple(self, port: int, tup: DataTuple) -> list[Emit]:  # pragma: no cover
        raise RuntimeError(f"source operator {self.name} received a tuple")


class SinkOperator(Operator):
    """Terminal operator: records deliveries for metrics and verification."""

    state_attrs = ("received_count",)

    def __init__(self, name: str = "", keep_payloads: bool = False):
        super().__init__(name)
        self.received_count = 0
        self.keep_payloads = keep_payloads
        self.payload_log: list[Any] = []  # verification only; not "state"

    def on_tuple(self, port: int, tup: DataTuple) -> list[Emit]:
        self.received_count += 1
        if self.keep_payloads:
            self.payload_log.append(tup.payload)
        return []

    def processing_cost(self, tup: DataTuple) -> float:
        return DEFAULT_FIXED_COST


class StatelessMapOperator(Operator):
    """Convenience: a stateless 1-in/1-out transform (used in tests)."""

    def __init__(self, fn: Callable[[Any], Any], out_size: int | None = None, name: str = ""):
        super().__init__(name)
        self.fn = fn
        self.out_size = out_size

    def on_tuple(self, port: int, tup: DataTuple) -> list[Emit]:
        return [
            Emit(
                payload=self.fn(tup.payload),
                size=self.out_size if self.out_size is not None else tup.size,
                key=tup.key,
            )
        ]
