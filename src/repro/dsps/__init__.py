"""Distributed Stream Processing System core.

Implements the paper's execution model (§II-A): operators grouped into
High Availability Units (HAUs), each managed by a Stream Process Engine
(SPE) on a node; tuples flow along a directed acyclic *query network*.

The checkpointing schemes in :mod:`repro.core` plug into
:class:`HAURuntime` through the hooks of :class:`CheckpointScheme` —
tokens, preservation and state snapshots are scheme concerns; the
runtime provides the mechanics (port blocking, intake pausing, backlog
snapshots, emission).
"""

from repro.dsps.tuples import DataTuple, Token, StreamItem, TOKEN_SIZE
from repro.dsps.operator import (
    Operator,
    SourceOperator,
    SinkOperator,
    Emit,
    OperatorContext,
)
from repro.dsps.graph import QueryGraph, HAUSpec, EdgeSpec, GraphError
from repro.dsps.hau import HAURuntime
from repro.dsps.application import StreamApplication
from repro.dsps.runtime import CheckpointScheme, DSPSRuntime, RuntimeConfig

# Opt-in cross-HAU state-isolation guard (REPRO_SAN=1); installed here —
# after repro.dsps.hau / repro.dsps.operator are fully initialised — to
# keep the sanitizer import acyclic.
from repro.sanitize import maybe_install_state_guard as _maybe_install_state_guard

_maybe_install_state_guard()

__all__ = [
    "DataTuple",
    "Token",
    "StreamItem",
    "TOKEN_SIZE",
    "Operator",
    "SourceOperator",
    "SinkOperator",
    "Emit",
    "OperatorContext",
    "QueryGraph",
    "HAUSpec",
    "EdgeSpec",
    "GraphError",
    "HAURuntime",
    "CheckpointScheme",
    "StreamApplication",
    "DSPSRuntime",
    "RuntimeConfig",
]
