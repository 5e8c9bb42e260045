"""Protocol rules: engine-event yields and work-or-None scheme hooks.

SIM001 guards the discrete-event engine's contract that a process
generator only ever yields :class:`~repro.simulation.core.Event`
objects — a bare or literal yield is rejected by the engine *at
runtime*, typically minutes into a sweep; the static pass catches it at
review time.  PROTO001 keeps the one scheme-hook check that needs source
text: a plain work-or-None hook must hand back the generator it makes
rather than drop it (a dropped one never runs).  The hook kinds
themselves (generator / plain / classmethod) and operator
``snapshot``/``restore`` pairing are enforced by ``CheckpointScheme`` and
``Operator`` when a subclass is created, on the real MRO, wherever the
class lives.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.docs import load_vocabulary
from repro.analysis.engine import ModuleContext
from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register

def _work_hooks(root: Path) -> frozenset[str]:
    """The ``work`` hooks of the scanned tree's ``SCHEME_HOOKS``, read with
    ``ast.literal_eval`` as VOC001 reads the vocabulary (none without one)."""
    try:
        loaded = load_vocabulary(root)
    except SyntaxError:  # VOC001 reports it
        return frozenset()
    hooks = loaded[0].get("SCHEME_HOOKS", {}) if loaded is not None else {}
    return frozenset(hook for hook, (kind, _) in hooks.items() if kind == "work")


def _is_generator_fn(fn: ast.FunctionDef) -> bool:
    return any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in _walk_own(fn))


def _dropped_self_calls(fn: ast.FunctionDef) -> list[ast.Expr]:
    """The ``self.<name>(...)`` calls made as bare statements."""
    return [
        node
        for node in _walk_own(fn)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and isinstance(node.value.func.value, ast.Name)
        and node.value.func.value.id == "self"
    ]


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


@register
class SchemeProtocolRule(Rule):
    """PROTO001 — a work-or-None scheme hook returns the generator it makes."""

    id = "PROTO001"
    title = (
        "a plain work-or-None scheme hook (`SCHEME_HOOKS` kind `work`) makes no bare "
        "`self.<m>(...)` call unless `<m>` is a plain method of the same class"
    )
    rationale = (
        "a generator made by a bare call is dropped and never runs, so the checkpoint it "
        "carries never happens; the other hook kinds are enforced by `CheckpointScheme` / "
        "`Operator` at class creation"
    )
    severity = Severity.ERROR
    node_types = (ast.ClassDef,)

    def __init__(self) -> None:
        self._work: frozenset[str] | None = None

    def visit(self, ctx: ModuleContext, node: ast.ClassDef) -> None:
        if self._work is None:
            self._work = _work_hooks(ctx.project.root)
        methods = {stmt.name: stmt for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
        plain = {name for name, fn in methods.items() if not _is_generator_fn(fn)}
        for hook in sorted(self._work & plain):
            for call in _dropped_self_calls(methods[hook]):
                callee = call.value.func.attr
                if callee not in plain:
                    ctx.report(
                        self,
                        call,
                        f"`{node.name}.{hook}` calls `self.{callee}(...)` and drops the result "
                        f"— `{callee}` is not a plain method of `{node.name}`, and a "
                        "work-or-None hook returns the generator to drive (or None); a "
                        "dropped one never runs",
                    )


__all__ = ["ProcessYieldRule", "SchemeProtocolRule"]
