"""VOC001 — code and docs say what ``src/repro/vocabulary.py`` says.

Code: every literal at a ``telemetry.counter/gauge/histogram(...)``,
``trace.emit(...)`` or ``scheme.transition(...)`` site is declared (a metric with the kind it is
created as) and every declared name is produced somewhere; a computed
name needs a declaration that covers it; and every dotted literal
compared with a trace ``kind`` is a declared kind.  Docs: every
generated block of DESIGN.md is what :mod:`repro.analysis.docs` renders.
Nothing under the analysed root is imported, so the rule works on broken
trees and on fixture trees that carry their own ``vocabulary.py``.
"""

from __future__ import annotations

import ast
import os
import re

from repro.analysis.docs import VOCABULARY_RELPATH, check_blocks, load_vocabulary
from repro.analysis.engine import ModuleContext, const_str, receiver_tail
from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register

# Receiver tails that identify the metric registry / tracer handle at a
# call site (``env.telemetry.counter``, ``telem.histogram``,
# ``self._telem.counter``, ``self.registry.gauge`` ...).
TELEMETRY_RECEIVERS = frozenset({"telemetry", "telem", "_telem", "registry", "_registry"})
TRACER_RECEIVERS = frozenset({"trace", "tracer", "_trace", "_tracer"})
METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

_KIND_RE = re.compile(r"^[a-z_]+(\.[a-z_]+)+$")
_COMPARISONS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)

Site = tuple[str, int, int]  # relpath, line, col


def _leading_prefix(arg: ast.AST) -> str | None:
    """The constant ``"prefix." + ...`` head of a computed kind."""
    head: str | None = None
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add):
        head = const_str(arg.left)
    elif isinstance(arg, ast.JoinedStr) and arg.values:
        head = const_str(arg.values[0])
    if head is not None and "." in head:
        return head[: head.rindex(".") + 1]
    return None


def _literals(node: ast.AST, constants: dict[str, list[str]]) -> list[str]:
    """String literals an operand stands for: itself, the elements of a
    literal tuple/list/set, or those of a module constant it names."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [s for s in map(const_str, node.elts) if s is not None]
    if isinstance(node, ast.Name):
        return constants.get(node.id, [])
    text = const_str(node)
    return [] if text is None else [text]


@register
class VocabularyRule(Rule):
    """VOC001 — see the module docstring."""

    id = "VOC001"
    extra_dirs_ok = False
    title = (
        "`src/repro/vocabulary.py` is the one definition: every metric / trace-kind literal at "
        "an emission site (metrics with the kind they are created as) and every dotted literal "
        "compared with a trace `kind` is declared there, every declared name is produced, a "
        "computed name needs a `TRACE_DYNAMIC` namespace or the `SERIES_METRICS` import, and "
        "every generated block of this file is what `--write-docs` renders (stale: a warning)"
    )
    rationale = (
        "exports, SLO windows, span builders and dashboards match names verbatim: an undeclared "
        "emission is an untracked schema change, a declared-but-dead name reads as zeros, a "
        "branch on a misspelt kind never runs; generated tables cannot disagree with their source"
    )
    severity = Severity.ERROR
    node_types = (ast.Call, ast.Compare, ast.Assign)

    def __init__(self) -> None:
        self._metrics: dict[str, list[tuple[Site, str]]] = {}  # name -> (site, factory)
        self._series: list[Site] = []  # where SERIES_METRICS names reach the registry
        self._kinds: dict[str, Site] = {}
        self._prefixes: dict[str, Site] = {}
        self._compared: set[tuple[str, Site]] = set()

    # -- per module --------------------------------------------------------
    def begin_module(self, ctx: ModuleContext) -> None:
        self._subjects = {"kind"}  # names that hold a trace kind
        self._constants: dict[str, list[str]] = {}  # NAME = ("a.b", ...)
        self._comparisons: list[ast.Compare] = []

    def visit(self, ctx: ModuleContext, node: ast.AST) -> None:
        if isinstance(node, ast.Compare):
            self._comparisons.append(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(node.value, ast.Attribute) and node.value.attr == "kind":
                    self._subjects.add(target.id)  # k = e.kind
                elif isinstance(node.value, (ast.Tuple, ast.List, ast.Set)):
                    self._constants[target.id] = _literals(node.value, {})
        elif isinstance(node.func, ast.Attribute) and node.args:
            tail, attr, arg = receiver_tail(node.func), node.func.attr, node.args[0]
            site = (ctx.relpath, node.lineno, node.col_offset + 1)
            problem = None
            if attr in METRIC_FACTORIES and tail in TELEMETRY_RECEIVERS:
                if const_str(arg) is not None:
                    self._metrics.setdefault(arg.value, []).append((site, attr))
                elif any(o.endswith("SERIES_METRICS") for o in ctx.imports.values()):
                    self._series.append(site)
                else:
                    problem = (
                        "computed metric name `{}` — metric names are string literals, except "
                        "in a module that takes them from the vocabulary's SERIES_METRICS"
                    )
            elif (attr == "emit" and tail in TRACER_RECEIVERS) or attr == "transition":
                prefix = _leading_prefix(arg)
                if const_str(arg) is not None:
                    self._kinds.setdefault(arg.value, site)
                elif prefix is not None:
                    self._prefixes.setdefault(prefix, site)
                else:
                    problem = (
                        "computed trace kind `{}` without a constant dotted prefix — kinds "
                        "must be statically enumerable"
                    )
            if problem:
                ctx.report(self, node, problem.format(ast.unparse(arg)))

    def end_module(self, ctx: ModuleContext) -> None:
        for node in self._comparisons:
            operands = [node.left, *node.comparators]
            if all(isinstance(op, _COMPARISONS) for op in node.ops) and any(
                (isinstance(o, ast.Attribute) and o.attr == "kind")
                or (isinstance(o, ast.Name) and o.id in self._subjects)
                for o in operands
            ):
                for o in operands:
                    site = (ctx.relpath, o.lineno, o.col_offset + 1)
                    dotted = filter(_KIND_RE.match, _literals(o, self._constants))
                    self._compared.update((text, site) for text in dotted)

    # -- cross-file --------------------------------------------------------
    def finalize(self, project) -> None:
        def report(site: Site, message: str, severity: str | None = None) -> None:
            project.report(self, *site, message, severity)

        try:
            loaded = load_vocabulary(project.root)
        except SyntaxError as exc:
            report((VOCABULARY_RELPATH, exc.lineno, 1), exc.msg)
            return
        if loaded is None:
            produced = [s for sites in self._metrics.values() for s, _ in sites]
            produced += [*self._series, *self._kinds.values(), *self._prefixes.values()]
            if produced:
                report(
                    min(produced),
                    f"metrics or trace events are emitted but {VOCABULARY_RELPATH} "
                    "(their vocabulary) was not found",
                    Severity.WARNING,
                )
            return
        values, lines = loaded
        design = project.config.design_path or project.root / "DESIGN.md"
        if design.is_file():
            relpath = os.path.relpath(design, project.root)
            for line, message in check_blocks(design.read_text(encoding="utf-8"), values)[1]:
                report((relpath, line, 1), message, Severity.WARNING)
        else:
            message = f"{design}, which this file's tables are generated into, was not found"
            report((VOCABULARY_RELPATH, 1, 1), message, Severity.WARNING)
        kinds, dynamic = values.get("TRACE_KINDS", {}), values.get("TRACE_DYNAMIC", {})
        metrics = {name: kind for row in values.get("METRICS", ()) for name, kind in row[0].items()}

        def known(kind: str) -> bool:
            return kind in kinds or any(kind.startswith(ns) for ns in dynamic)

        def both_ways(what, table, emitted: dict[str, Site], declared, covered=None) -> None:
            for name in sorted(emitted):
                if not (covered(name) if covered else name in declared):
                    report(
                        emitted[name],
                        f"{what} `{name}` is emitted but not declared in "
                        f"{VOCABULARY_RELPATH} ({table})",
                    )
            for name in sorted(set(declared) - set(emitted)):
                report(
                    (VOCABULARY_RELPATH, lines.get(name, 1), 1),
                    f"{what} `{name}` is declared in {table} but never emitted",
                )

        first = {name: min(sites)[0] for name, sites in self._metrics.items()}
        both_ways("metric", "METRICS", first, metrics)
        both_ways("trace kind", "TRACE_KINDS", self._kinds, kinds, known)
        both_ways("computed trace kinds under", "TRACE_DYNAMIC", self._prefixes, dynamic)
        for name, sites in sorted(self._metrics.items()):
            for site, factory in sorted(sites):
                if factory != metrics.get(name, factory):
                    report(
                        site,
                        f"metric `{name}` is created as a {factory} here but declared a "
                        f"{metrics[name]} in {VOCABULARY_RELPATH} (METRICS)",
                    )
        series = values.get("SERIES_METRICS", ())
        if series and not self._series:
            report(
                (VOCABULARY_RELPATH, lines.get(series[0], 1), 1),
                "SERIES_METRICS is declared but no module that imports it creates the gauges",
            )
        for text, site in sorted(self._compared):
            if not known(text):
                report(
                    site,
                    f"`{text}` is compared with a trace kind but {VOCABULARY_RELPATH} "
                    "declares no such kind — this branch can never match",
                )
