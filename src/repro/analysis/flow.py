"""Interprocedural taint rules: nondeterminism must not *reach* exports.

The per-file determinism rules (DET001/DET002/DET005) catch a source at
the line it is written; these rules catch the flows the PR-3 linter was
blind to — a tainted helper called (transitively) from an export path or
a checkpoint-scheme hook.  Both run in the finalize phase against the
call graph the engine builds (:mod:`repro.analysis.callgraph`).

Suppression works at either end of a flow: an inline
``# repro-lint: disable=DET004`` (or ``PUR001``) on the *source* line
sanctions every chain through that seed (configuration reads like
``REPRO_FULL`` are the canonical case), while a disable on the reported
sink/hook definition line silences that one endpoint.
"""

from __future__ import annotations

from repro.analysis.callgraph import CallGraph, FunctionNode, TaintSeed
from repro.analysis.findings import Severity
from repro.analysis.nondet import TAINT_KINDS
from repro.analysis.protocol import GENERATOR_HOOKS, PLAIN_HOOKS, SCHEME_ROOTS
from repro.analysis.registry import Rule, register

# Direct wall-clock / global-RNG / unsorted-enumeration use inside the
# reported function itself is already a DET001/DET002/DET005 finding;
# the flow rules only add value for the transitive case (and for the
# source kinds with no per-file rule: environ, id()/hash()).
_DIRECT_OWNED = frozenset({"wall-clock", "global-rng", "fs-order"})

_STATE_METHODS = frozenset({"snapshot", "restore"})


def _chain_text(graph: CallGraph, chain: list[str], seed: TaintSeed) -> str:
    """``a -> b -> c`` with the seed's location appended."""
    hops = " -> ".join(_short(q) for q in chain)
    holder = graph.nodes[chain[-1]]
    return f"{hops} ({seed.detail} at {holder.relpath}:{seed.lineno})"


def _short(qualname: str) -> str:
    """Drop the module prefix: ``repro.core.base.Cls.meth`` -> ``Cls.meth``."""
    parts = qualname.split(".")
    for i, part in enumerate(parts):
        if part[:1].isupper():
            return ".".join(parts[i:])
    return parts[-1]


def _seed_filter(project, rule_id: str):
    """Vetoes seeds whose source line carries an inline disable for us."""

    def seed_ok(node: FunctionNode, seed: TaintSeed) -> bool:
        supp = project.suppressions_at(node.relpath).get(seed.lineno, set())
        return rule_id not in supp and "all" not in supp

    return seed_ok


@register
class TransitiveExportTaintRule(Rule):
    """DET004 — no nondeterminism may flow into an export sink."""

    id = "DET004"
    title = (
        "*transitive*: no nondeterminism source (wall clock, global RNG, `os.environ`, unsorted "
        "enumeration, `id()`/`hash()`) may **reach** an export sink (trace emit, telemetry metric, "
        "serialiser function) through any call chain"
    )
    rationale = (
        "the per-file rules see one function at a time; a tainted helper poisons every artifact "
        "downstream of it — the call graph is walked so the leak is reported at the sink even "
        "when the source hides two calls away"
    )
    suppress_hint = (
        "add `# repro-lint: disable=DET004` on the source line to sanction "
        "every chain through it (config reads), or on the sink definition "
        "line to accept that one endpoint"
    )
    severity = Severity.ERROR
    node_types = ()
    dirs = ("src",)

    def finalize(self, project) -> None:
        graph = project.callgraph
        if graph is None:
            return
        seed_ok = _seed_filter(project, self.id)
        for qual in sorted(graph.nodes):
            node = graph.nodes[qual]
            if not node.sinks or not node.relpath.startswith("src/"):
                continue
            for seed, chain in graph.taint_paths(
                qual, skip_direct=_DIRECT_OWNED, seed_ok=seed_ok
            ):
                kind = TAINT_KINDS.get(seed.kind, seed.kind)
                sinks = "/".join(sorted(node.sinks))
                project.report(
                    self,
                    path=node.relpath,
                    line=node.lineno,
                    col=1,
                    message=(
                        f"{kind} can reach export sink `{_short(qual)}` "
                        f"({sinks}): {_chain_text(graph, chain, seed)}"
                    ),
                )


@register
class PureHookRule(Rule):
    """PUR001 — scheme hooks and snapshot/restore paths stay pure."""

    id = "PUR001"
    title = (
        "*transitive*: checkpoint-scheme hooks and operator `snapshot`/`restore` paths reach no "
        "nondeterminism"
    )
    rationale = (
        "every control decision a scheme makes must be replayable from simulation state alone; an "
        "impure hook makes recovery and chaos-replay diverge from the recorded run"
    )
    suppress_hint = (
        "add `# repro-lint: disable=PUR001` on the source line (sanctions "
        "all chains through it) or on the hook definition line"
    )
    severity = Severity.ERROR
    node_types = ()
    dirs = ("src",)

    _HOOKS = GENERATOR_HOOKS | PLAIN_HOOKS

    def finalize(self, project) -> None:
        graph = project.callgraph
        if graph is None:
            return
        seed_ok = _seed_filter(project, self.id)
        for qual in sorted(graph.nodes):
            node = graph.nodes[qual]
            if node.cls is None or not node.relpath.startswith("src/"):
                continue
            if not self._is_guarded(graph, node):
                continue
            for seed, chain in graph.taint_paths(
                qual, skip_direct=_DIRECT_OWNED, seed_ok=seed_ok
            ):
                kind = TAINT_KINDS.get(seed.kind, seed.kind)
                what = (
                    "snapshot/restore path"
                    if node.name in _STATE_METHODS
                    else "scheme hook"
                )
                project.report(
                    self,
                    path=node.relpath,
                    line=node.lineno,
                    col=1,
                    message=(
                        f"{what} `{_short(qual)}` reaches a {kind}: "
                        f"{_chain_text(graph, chain, seed)} — checkpoint "
                        "decisions and state serialisation must derive from "
                        "simulation state only"
                    ),
                )

    def _is_guarded(self, graph: CallGraph, node: FunctionNode) -> bool:
        assert node.cls is not None
        lineage = graph.ancestors(node.cls) | {node.cls}
        if node.name in self._HOOKS and lineage & SCHEME_ROOTS:
            return True
        return node.name in _STATE_METHODS and "Operator" in lineage


__all__ = ["PureHookRule", "TransitiveExportTaintRule"]
