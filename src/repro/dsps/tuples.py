"""Stream items: data tuples and checkpoint tokens.

A *tuple* is the unit of data between operators (§II-A).  A *token* is
"a piece of data embedded in the dataflow" (§III-A) that conveys a
checkpoint command; it travels in-band through the same channels as data
tuples, which is what gives it its stream-boundary meaning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

TOKEN_SIZE = 64  # bytes on the wire: "incurs very small overhead"


@dataclass(slots=True)
class DataTuple:
    """A unit of stream data.

    ``size`` is the nominal wire/state size in bytes (declared by the
    workload, not measured from the Python object — see DESIGN.md).
    ``created_at`` is stamped at the source and carried downstream so the
    sink can compute end-to-end latency.  ``seq`` is a per-stream sequence
    number assigned at emission, used by input preservation acks and by
    duplicate suppression during baseline recovery.
    """

    payload: Any
    size: int
    key: Any | None = None
    created_at: float = 0.0
    seq: int = 0
    source: str = ""

    # A tuple is a value: no field is written after construction, so a
    # copy of whatever holds it may share it (see repro.dsps.operator).
    def __copy__(self) -> "DataTuple":
        return self

    def __deepcopy__(self, memo: dict[int, Any]) -> "DataTuple":
        return self


@dataclass(frozen=True)
class Token:
    """A checkpoint token.

    ``round_id`` identifies the application checkpoint this token belongs
    to.  ``kind`` distinguishes the cascading tokens of MS-src (forwarded
    downstream after each individual checkpoint) from the 1-hop tokens of
    MS-src+ap/+aa (discarded once the individual checkpoint starts).
    """

    round_id: int
    origin: str = ""
    kind: str = "cascade"  # "cascade" | "one_hop"
    size: int = field(default=TOKEN_SIZE, compare=False)


StreamItem = DataTuple | Token


def is_token(item: StreamItem) -> bool:
    return isinstance(item, Token)
