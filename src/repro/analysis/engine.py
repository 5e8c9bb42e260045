"""The analysis engine: one walk over the tree, rules ride along.

``run_analysis`` parses every ``*.py`` file under the configured
top-level directories exactly once, precomputes the per-module facts
most rules need (import alias table, inline-suppression comments), then
walks the AST a single time dispatching each node to the rules that
subscribed to its type.  Cross-file rules accumulate state during the
walk and report from their ``finalize`` hook, which may also attach
findings to non-Python files (e.g. a stale DESIGN.md block).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.astutil import (  # noqa: F401  (re-exported for rules/tests)
    canonical_name,
    const_str,
    dotted_name,
    import_aliases,
    parse_suppressions,
    receiver_tail,
)
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.registry import Rule, all_rules

DEFAULT_DIRS = ("src", "benchmarks", "examples")


@dataclass
class AnalysisConfig:
    """Where to look and what to check."""

    root: Path
    dirs: tuple[str, ...] = DEFAULT_DIRS
    design_path: Path | None = None  # default: <root>/DESIGN.md
    rule_ids: tuple[str, ...] | None = None  # None = every registered rule
    # Opt-in extra top-level directories (``--include-dirs``, e.g. tests):
    # scanned like the defaults, and rules without a path_globs scope and
    # with ``extra_dirs_ok`` apply there even though the dirs are absent
    # from their declared ``dirs``.
    extra_dirs: tuple[str, ...] = ()


class ModuleContext:
    """Everything a rule sees about the module currently being walked."""

    def __init__(self, project: "Project", relpath: str, tree: ast.Module, source: str):
        self.project = project
        self.relpath = relpath
        self.tree = tree
        self.source = source
        self.imports = import_aliases(tree)
        self.suppressions = parse_suppressions(source)

    def canonical(self, node: ast.AST) -> str | None:
        """Dotted name of ``node`` with its head import-resolved:
        ``np.random.seed`` -> ``numpy.random.seed``."""
        return canonical_name(self.imports, node)

    def report(self, rule: Rule, node: ast.AST, message: str, severity: str | None = None) -> None:
        self.project.report(
            rule,
            path=self.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            message=message,
            severity=severity,
        )


class Project:
    """Holds the run's findings and the cross-module fact store."""

    def __init__(self, config: AnalysisConfig):
        self.config = config
        self.root = Path(config.root)
        self.findings: list[Finding] = []
        self.inline_suppressed = 0
        self.files_scanned = 0
        # relpath -> per-line suppression sets, so finalize-phase reports
        # honour inline disables at the recorded call sites too.
        self._suppressions: dict[str, dict[int, set[str]]] = {}

    def register_suppressions(self, relpath: str, supp: dict[int, set[str]]) -> None:
        self._suppressions[relpath] = supp

    def report(
        self,
        rule: Rule,
        path: str,
        line: int,
        col: int,
        message: str,
        severity: str | None = None,
    ) -> None:
        line_supp = self._suppressions.get(path, {}).get(line, set())
        if rule.id in line_supp or "all" in line_supp:
            self.inline_suppressed += 1
            return
        self.findings.append(
            Finding(
                rule=rule.id,
                severity=severity or rule.severity,
                path=path,
                line=line,
                col=col,
                message=message,
            )
        )


class _InternalErrors(Rule):
    """Pseudo-rule for files the engine could not parse."""

    id = "E000"
    title = "file parses as Python"
    rationale = "unparsable files are invisible to every other invariant check"
    severity = Severity.ERROR


def iter_python_files(root: Path, dirs: tuple[str, ...]) -> list[Path]:
    files: list[Path] = []
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        files.extend(
            p
            for p in sorted(base.rglob("*.py"))
            if not any(part.startswith(".") for part in p.relative_to(root).parts)
        )
    return sorted(files)


def run_analysis(config: AnalysisConfig, rules: list[Rule] | None = None) -> Project:
    """Walk the tree once; return the project with findings populated
    (sorted canonically)."""
    project = Project(config)
    if rules is None:
        classes = all_rules()
        if config.rule_ids is not None:
            wanted = set(config.rule_ids)
            classes = [cls for cls in classes if cls.id in wanted]
        rules = [cls() for cls in classes]

    internal = _InternalErrors()
    root = Path(config.root)
    extra = tuple(d for d in config.extra_dirs if d not in config.dirs)

    for path in iter_python_files(root, config.dirs + extra):
        relpath = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            project.report(
                internal, relpath, exc.lineno or 0, (exc.offset or 0), f"syntax error: {exc.msg}"
            )
            continue
        project.files_scanned += 1
        ctx = ModuleContext(project, relpath, tree, source)
        project.register_suppressions(relpath, ctx.suppressions)

        top = relpath.split("/", 1)[0]
        in_extra = top in extra
        active = [
            r
            for r in rules
            if r.applies_to(relpath)
            or (in_extra and r.extra_dirs_ok and r.path_globs is None)
        ]
        if not active:
            continue
        dispatch: dict[type, list[Rule]] = {}
        for rule in active:
            rule.begin_module(ctx)
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        if dispatch:
            for node in ast.walk(tree):
                for rule in dispatch.get(type(node), ()):
                    rule.visit(ctx, node)
        for rule in active:
            rule.end_module(ctx)

    for rule in rules:
        rule.finalize(project)

    project.findings = sort_findings(project.findings)
    return project
