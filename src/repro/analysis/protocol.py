"""Protocol rules: engine-event yields and checkpoint-scheme hooks.

SIM001 guards the discrete-event engine's contract that a process
generator only ever yields :class:`~repro.simulation.core.Event`
objects — a bare or literal yield is rejected by the engine *at
runtime*, typically minutes into a sweep; the static pass catches it at
review time.  PROTO001 guards the checkpoint-protocol hook surface
(Khaos-style discipline): scheme subclasses must implement the hooks the
HAU run loop drives, generator-valued hooks must actually be generators
(``yield from`` of a plain function raises mid-checkpoint), a plain
work-or-None hook must hand back the generator it makes rather than drop
it (a dropped one never runs), and custom operator serialisation must
come in save/restore pairs or recovery silently diverges from the MRC
state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.engine import ModuleContext
from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register

# Scheme hooks the HAU/coordinator drives with `yield from` — an
# override must be a generator function (contain yield / yield from).
GENERATOR_HOOKS = frozenset(
    {
        "handle_token",
        "on_control",
        "initiate_round",
        "write_checkpoint",
        "recover",
    }
)

# Per-tuple hooks that return work or None: the generator to drive, or
# None when there is nothing to do.  A generator function qualifies; a
# plain override must not call a generator method of its scheme as a
# bare statement — that generator is made, dropped and never run.
WORK_HOOKS = frozenset({"on_source_emit", "on_emit", "maybe_checkpoint"})

# Scheme hooks called as plain functions — a yield here would turn the
# call into a never-driven generator and the hook body would never run.
PLAIN_HOOKS = frozenset(
    {
        "on_token_arrival",
        "processing_overhead",
        "on_recovery_reset",
        "recovery_read_plan",
        "oldest_kept_version",
        "attach",
        "start",
    }
)

SCHEME_ROOTS = frozenset({"CheckpointScheme", "MeteorShowerBase"})


def _is_generator_fn(fn: ast.FunctionDef) -> bool:
    for node in _walk_own(fn):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _dropped_self_calls(fn: ast.FunctionDef) -> list[tuple[str, int]]:
    """``self.<name>(...)`` calls made as bare statements, with lines."""
    out: list[tuple[str, int]] = []
    for node in _walk_own(fn):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and isinstance(node.value.func.value, ast.Name)
            and node.value.func.value.id == "self"
        ):
            out.append((node.value.func.attr, node.lineno))
    return out


def _walk_own(fn: ast.AST):
    """Walk a function's body without descending into nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _collect_bad_yields(fn: ast.FunctionDef) -> list[tuple[int, int, str]]:
    """Locations of yields that cannot be engine events.

    Flags ``yield`` of a literal (constant, tuple/list/dict/set display,
    f-string) and value-less ``yield`` — except the ``return`` / ``raise``
    followed by an unreachable ``yield`` idiom that turns a default hook
    into a generator (see CheckpointScheme), which is deliberate and harmless.
    """
    bad: list[tuple[int, int, str]] = []

    def scan_expr(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.stmt):  # e.g. match-case bodies
            scan_stmts([node])
            return
        if isinstance(node, ast.Yield):
            val = node.value
            if val is None:
                bad.append((node.lineno, node.col_offset, "bare `yield`"))
            elif isinstance(
                val, (ast.Constant, ast.Tuple, ast.List, ast.Dict, ast.Set, ast.JoinedStr)
            ):
                bad.append((node.lineno, node.col_offset, f"`yield {ast.unparse(val)}`"))
            return
        for child in ast.iter_child_nodes(node):
            scan_expr(child)

    def scan_stmts(body: list[ast.stmt]) -> None:
        prev: ast.stmt | None = None
        for stmt in body:
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Yield)
                and stmt.value.value is None
                and isinstance(prev, (ast.Return, ast.Raise))
            ):
                # make-this-a-generator idiom: unreachable bare yield
                prev = stmt
                continue
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for attr in ("body", "orelse", "finalbody"):
                    sub = getattr(stmt, attr, None)
                    if sub:
                        scan_stmts(sub)
                for handler in getattr(stmt, "handlers", None) or []:
                    scan_stmts(handler.body)
                for child in ast.iter_child_nodes(stmt):
                    if not isinstance(child, (ast.stmt, ast.excepthandler)):
                        scan_expr(child)
            prev = stmt

    scan_stmts(fn.body)
    return bad


@register
class ProcessYieldRule(Rule):
    """SIM001 — process generators yield engine events only."""

    id = "SIM001"
    title = (
        "process generators driven by `env.process` / `spawn` / `Process(...)` yield only engine "
        "events"
    )
    rationale = (
        "the DES kernel rejects non-event yields at runtime (`process ... yielded non-event`), "
        "typically minutes into a sweep"
    )
    severity = Severity.ERROR
    node_types = (ast.FunctionDef, ast.Call)

    def begin_module(self, ctx: ModuleContext) -> None:
        self._fns: dict[str, ast.FunctionDef] = {}
        self._driven: dict[str, ast.Call] = {}

    def visit(self, ctx: ModuleContext, node: ast.AST) -> None:
        if isinstance(node, ast.FunctionDef):
            # last definition of a bare name wins (module-local heuristic)
            self._fns[node.name] = node
            return
        call = node
        target: ast.AST | None = None
        if isinstance(call.func, ast.Attribute) and call.func.attr in ("process", "spawn"):
            if call.args:
                target = call.args[0]
        elif isinstance(call.func, ast.Name) and call.func.id == "Process":
            if len(call.args) >= 2:
                target = call.args[1]
        if isinstance(target, ast.Call):
            name: str | None = None
            if isinstance(target.func, ast.Name):
                name = target.func.id
            elif isinstance(target.func, ast.Attribute):
                name = target.func.attr
            if name is not None and name not in self._driven:
                self._driven[name] = call

    def end_module(self, ctx: ModuleContext) -> None:
        for name in sorted(self._driven):
            fn = self._fns.get(name)
            if fn is None:
                continue
            for lineno, col, desc in _collect_bad_yields(fn):
                self.project_report(ctx, fn, name, lineno, col, desc)

    def project_report(self, ctx, fn, name, lineno, col, desc) -> None:
        ctx.project.report(
            self,
            path=ctx.relpath,
            line=lineno,
            col=col + 1,
            message=(
                f"process generator `{name}` yields a non-event value ({desc}) — "
                "processes may only yield engine events (timeout/event/condition)"
            ),
        )


@dataclass
class _ClassInfo:
    name: str
    relpath: str
    lineno: int
    bases: tuple[str, ...]
    methods: dict[str, bool] = field(default_factory=dict)  # name -> is_generator
    method_lines: dict[str, int] = field(default_factory=dict)
    # plain work-or-None hook -> its bare `self.<name>(...)` calls
    dropped_calls: dict[str, list[tuple[str, int]]] = field(default_factory=dict)


@register
class SchemeProtocolRule(Rule):
    """PROTO001 — checkpoint-scheme / operator hook discipline."""

    id = "PROTO001"
    title = (
        "`CheckpointScheme` subclasses respect the hook protocol: generator hooks stay generators, "
        "plain hooks contain no yield, work-or-None hooks return the generator they make, "
        "concrete MS variants implement `initiate_round`, operator `snapshot`/`restore` stay "
        "paired"
    )
    rationale = (
        "a broken hook fails mid-checkpoint or silently never runs; unpaired serialisation "
        "diverges recovery from the MRC state"
    )
    severity = Severity.ERROR
    node_types = (ast.ClassDef,)

    def __init__(self) -> None:
        self._classes: dict[str, _ClassInfo] = {}

    def visit(self, ctx: ModuleContext, node: ast.ClassDef) -> None:
        bases = tuple(b for b in (self._base_name(base) for base in node.bases) if b)
        info = _ClassInfo(name=node.name, relpath=ctx.relpath, lineno=node.lineno, bases=bases)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                is_gen = _is_generator_fn(stmt)
                info.methods[stmt.name] = is_gen
                info.method_lines[stmt.name] = stmt.lineno
                if stmt.name in WORK_HOOKS and not is_gen:
                    info.dropped_calls[stmt.name] = _dropped_self_calls(stmt)
        # first definition wins so fixture shadowing cannot hide a class
        self._classes.setdefault(node.name, info)

    @staticmethod
    def _base_name(base: ast.AST) -> str | None:
        if isinstance(base, ast.Name):
            return base.id
        if isinstance(base, ast.Attribute):
            return base.attr
        return None

    def _ancestors(self, name: str) -> set[str]:
        seen: set[str] = set()
        stack = list(self._classes[name].bases) if name in self._classes else []
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            if b in self._classes:
                stack.extend(self._classes[b].bases)
        return seen

    def finalize(self, project) -> None:
        for name in sorted(self._classes):
            info = self._classes[name]
            ancestors = self._ancestors(name)
            if ancestors & SCHEME_ROOTS or name in SCHEME_ROOTS:
                self._check_scheme(project, info, ancestors)
            if "Operator" in ancestors:
                self._check_operator(project, info)

    def _check_scheme(self, project, info: _ClassInfo, ancestors: set[str]) -> None:
        for meth, is_gen in sorted(info.methods.items()):
            line = info.method_lines[meth]
            if meth in GENERATOR_HOOKS and not is_gen:
                project.report(
                    self,
                    path=info.relpath,
                    line=line,
                    col=1,
                    message=(
                        f"`{info.name}.{meth}` overrides a generator hook but is "
                        "not a generator — the runtime drives it with `yield from`"
                    ),
                )
            if meth in PLAIN_HOOKS and is_gen:
                project.report(
                    self,
                    path=info.relpath,
                    line=line,
                    col=1,
                    message=(
                        f"`{info.name}.{meth}` is a plain (non-generator) hook but "
                        "contains yield — its body would never execute"
                    ),
                )
        for meth, calls in sorted(info.dropped_calls.items()):
            for callee, line in calls:
                if self._is_generator_method(info.name, callee):
                    project.report(
                        self,
                        path=info.relpath,
                        line=line,
                        col=1,
                        message=(
                            f"`{info.name}.{meth}` calls generator `self.{callee}(...)` "
                            "and drops it — a work-or-None hook returns the generator "
                            "to drive (or None); a dropped one never runs"
                        ),
                    )
        # Concrete MS variants must provide initiate_round somewhere
        # strictly below MeteorShowerBase (whose stub raises).
        if "MeteorShowerBase" in ancestors:
            chain = [info.name]
            chain.extend(a for a in self._mro_chain(info.name) if a != "MeteorShowerBase")
            provided = any(
                "initiate_round" in self._classes[c].methods
                for c in chain
                if c in self._classes and c != "MeteorShowerBase"
            )
            if not provided and not self._has_subclass(info.name):
                project.report(
                    self,
                    path=info.relpath,
                    line=info.lineno,
                    col=1,
                    message=(
                        f"`{info.name}` subclasses MeteorShowerBase but no class in "
                        "its chain implements `initiate_round` — the coordinator "
                        "would raise NotImplementedError on the first round"
                    ),
                )

    def _mro_chain(self, name: str) -> list[str]:
        """Linearised ancestor names (declaration order, depth-first)."""
        out: list[str] = []
        seen: set[str] = set()

        def walk(n: str) -> None:
            if n not in self._classes:
                return
            for b in self._classes[n].bases:
                if b not in seen:
                    seen.add(b)
                    out.append(b)
                    walk(b)

        walk(name)
        return out

    def _is_generator_method(self, name: str, method: str) -> bool:
        """Whether ``method``, as ``name`` resolves it, is a generator."""
        for cls in (name, *self._mro_chain(name)):
            info = self._classes.get(cls)
            if info is not None and method in info.methods:
                return info.methods[method]
        return False

    def _has_subclass(self, name: str) -> bool:
        return any(
            name in self._ancestors(other) for other in self._classes if other != name
        )

    def _check_operator(self, project, info: _ClassInfo) -> None:
        has_snap = "snapshot" in info.methods
        has_rest = "restore" in info.methods
        if has_snap != has_rest:
            present, missing = ("snapshot", "restore") if has_snap else ("restore", "snapshot")
            project.report(
                self,
                path=info.relpath,
                line=info.method_lines[present],
                col=1,
                message=(
                    f"operator `{info.name}` overrides `{present}` without "
                    f"`{missing}` — custom state serialisation must stay "
                    "paired or recovery diverges from the checkpointed state"
                ),
            )


__all__ = [
    "ProcessYieldRule", "SchemeProtocolRule", "GENERATOR_HOOKS", "PLAIN_HOOKS", "WORK_HOOKS",
]
