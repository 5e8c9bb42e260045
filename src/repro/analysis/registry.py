"""The rule registry and the Rule base class.

A rule declares which AST node types it wants (the engine's shared
visitor dispatches them during the single walk), which top-level
directories / path globs it applies to, and its documentation fields
(invariant, rationale, suppression hint) which ``--list-rules`` renders.
Per-module hooks (``begin_module`` / ``visit`` / ``end_module``) see a
:class:`~repro.analysis.engine.ModuleContext`; cross-file rules carry
state on ``self`` and report from :meth:`finalize`.
"""

from __future__ import annotations

import ast
import fnmatch

from repro.analysis.findings import Severity


class Rule:
    """Base class; subclasses self-register via :func:`register`."""

    #: unique id, e.g. ``"DET001"``
    id: str = ""
    #: one-line statement of the invariant the rule protects
    title: str = ""
    #: why violating the invariant corrupts determinism / the protocol
    rationale: str = ""
    #: how to silence a deliberate violation
    suppress_hint: str = "add `# repro-lint: disable=<RULE>` on the line"
    severity: str = Severity.ERROR

    #: AST node classes the shared visitor dispatches to :meth:`visit`
    node_types: tuple[type, ...] = ()
    #: top-level directories (relative to the root) the rule scans
    dirs: tuple[str, ...] = ("src", "benchmarks", "examples")
    #: optional extra fnmatch globs on the POSIX relpath; None = all files
    path_globs: tuple[str, ...] | None = None
    #: whether ``--include-dirs`` opt-in directories (tests/, ...) extend
    #: this rule's scope (not VOC001's: test doubles emit names of their own)
    extra_dirs_ok: bool = True

    def applies_to(self, relpath: str) -> bool:
        top = relpath.split("/", 1)[0]
        if top not in self.dirs:
            return False
        if self.path_globs is None:
            return True
        return any(fnmatch.fnmatch(relpath, g) for g in self.path_globs)

    # -- per-module hooks (ctx: engine.ModuleContext) ----------------------
    def begin_module(self, ctx) -> None:
        """Called before the walk of one module."""

    def visit(self, ctx, node: ast.AST) -> None:
        """Called for every node whose type is in :attr:`node_types`."""

    def end_module(self, ctx) -> None:
        """Called after the walk of one module."""

    # -- cross-file hook ---------------------------------------------------
    def finalize(self, project) -> None:
        """Called once after every module was walked."""


_RULES: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: add the rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _RULES:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    if not Severity.valid(cls.severity):
        raise ValueError(f"rule {cls.id}: bad severity {cls.severity!r}")
    _RULES[cls.id] = cls
    return cls


def all_rules() -> list[type[Rule]]:
    """Registered rule classes, sorted by id."""
    return [_RULES[k] for k in sorted(_RULES)]


def get_rule(rule_id: str) -> type[Rule]:
    return _RULES[rule_id]
