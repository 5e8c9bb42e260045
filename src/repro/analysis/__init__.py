"""repro-lint: AST-based invariant checks for the reproduction.

The headline claim of this repo — byte-identical traces, telemetry
snapshots and bench artifacts for a given seed — rests on coding
invariants that ordinary linters do not know about: model code must
never read the wall clock, every random draw must come from the seeded
``repro.simulation.rng`` streams, export paths must not iterate
unordered collections, simulation processes must only yield engine
events, checkpoint schemes must implement their hook protocol, and every
metric / trace name is one ``repro/vocabulary.py`` (and so DESIGN.md) has.

``python -m repro.analysis`` walks ``src/``, ``benchmarks/`` and
``examples/`` once with a shared visitor and dispatches each AST node to
the registered rules; cross-file rules (vocabulary, protocol checks)
accumulate state and report during a finalize phase.  See
``python -m repro.analysis --list-rules`` for the rule inventory.
"""

from repro.analysis.engine import AnalysisConfig, Project, run_analysis
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, all_rules, get_rule, register

# Importing the rule modules registers their rules.
from repro.analysis import (  # noqa: F401  (registration side effect)
    determinism,
    protocol,
    vocab,
)

__all__ = [
    "AnalysisConfig",
    "Finding",
    "Project",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "register",
    "run_analysis",
]
