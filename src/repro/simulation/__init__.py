"""Deterministic discrete-event simulation engine.

A small, self-contained SimPy-style kernel used as the substrate for the
Meteor Shower reproduction.  Processes are Python generators that yield
:class:`Event` objects; the :class:`Environment` advances a virtual clock
and resumes processes when the events they wait on fire.

Design goals (see DESIGN.md):

* **Determinism** — same seed, same schedule, bit-identical runs.  Events
  with equal timestamps fire in insertion order (monotonic sequence
  numbers break ties).
* **Zero wall-clock coupling** — simulated seconds only; suitable for
  modelling a 56-node cluster far faster than real time.
* **Interruptible waits** — processes can be interrupted (used for
  fail-stop node kills) and can wait on composite conditions
  (:class:`AnyOf` / :class:`AllOf`).
"""

from repro.simulation.core import (
    Environment,
    Event,
    Process,
    Timeout,
    Interrupt,
    SimulationError,
    AnyOf,
    AllOf,
)
from repro.simulation.resources import Resource, Store
from repro.simulation.rng import RngRegistry

# Opt-in runtime sanitizers (REPRO_SAN=1): installed once at import time
# so the per-event hot path carries no enablement branch when off.
from repro.sanitize import maybe_install_kernel as _maybe_install_kernel

_maybe_install_kernel()

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Interrupt",
    "SimulationError",
    "AnyOf",
    "AllOf",
    "Resource",
    "Store",
    "RngRegistry",
]
