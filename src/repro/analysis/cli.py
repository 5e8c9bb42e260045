"""The repro-lint command line.

``python -m repro.analysis [--strict] [--format json|text|github]
[--include-dirs DIRS] [--list-rules] [--write-docs] [DIRS...]``

Exit codes: 0 — clean (errors gate by default; ``--strict`` gates
warnings too); 1 — at least one gating finding survived inline
suppression (``# repro-lint: disable=<RULE>``, the one suppression
mechanism); 2 — usage or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.docs import write_docs
from repro.analysis.engine import DEFAULT_DIRS, AnalysisConfig, run_analysis
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import all_rules

REPORT_VERSION = 2  # v2: the baseline keys and per-finding fingerprints are gone


def list_rules_text() -> str:
    """The rule inventory, rendered with the same table renderer as
    ``python -m repro.inspect`` so tooling output stays visually
    consistent."""
    from repro.harness.report import format_table

    rules = all_rules()
    table = format_table(
        ["rule", "severity", "scope"],
        [[cls.id, cls.severity, ",".join(cls.dirs) or "each row's own"] for cls in rules],
        title="repro-lint rules",
    )
    sections = [table]
    for cls in rules:
        sections.append(
            f"{cls.id}: {cls.title}\n"
            f"  why: {cls.rationale}\n"
            f"  suppress: {cls.suppress_hint}"
        )
    return "\n\n".join(sections)


def report_dict(project, strict: bool) -> dict:
    findings = project.findings
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    return {
        "version": REPORT_VERSION,
        "strict": strict,
        "dirs": list(project.config.dirs),
        "extra_dirs": list(project.config.extra_dirs),
        "files_scanned": project.files_scanned,
        "rules": [cls.id for cls in all_rules()],
        "findings": [f.as_dict() for f in findings],
        "counts": dict(sorted(counts.items())),
        "suppressed_inline": project.inline_suppressed,
    }


def _github_escape(text: str) -> str:
    """Escape message data for a workflow command (single line)."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(findings: list[Finding]) -> list[str]:
    """GitHub Actions workflow-command annotations, one per finding."""
    lines = []
    for f in findings:
        level = "error" if f.severity == Severity.ERROR else "warning"
        lines.append(
            f"::{level} file={f.path},line={f.line},col={f.col},"
            f"title={f.rule}::{_github_escape(f.message)}"
        )
    return lines


def _gating(findings: list[Finding], strict: bool) -> list[Finding]:
    if strict:
        return findings
    return [f for f in findings if f.severity == Severity.ERROR]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter for determinism, protocol and "
        "instrumentation discipline (see --list-rules).",
    )
    parser.add_argument(
        "dirs",
        nargs="*",
        default=None,
        help=f"top-level directories to scan (default: {' '.join(DEFAULT_DIRS)})",
    )
    parser.add_argument("--root", default=".", help="repository root (default: cwd)")
    parser.add_argument(
        "--strict", action="store_true", help="warnings gate the exit code too"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (github = Actions ::error/::warning annotations)",
    )
    parser.add_argument(
        "--include-dirs",
        default=None,
        metavar="DIRS",
        help="comma-separated extra top-level directories to lint (opt-in "
        "scope extension, e.g. tests; inventory-sync rules stay scoped)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (independent of --format)",
    )
    parser.add_argument("--design", default=None, help="DESIGN.md path (generated blocks)")
    parser.add_argument(
        "--write-docs",
        action="store_true",
        help="rewrite DESIGN.md's generated blocks from src/repro/vocabulary.py and exit",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule inventory and exit"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.list_rules:
        print(list_rules_text())
        return 0

    root = Path(args.root)
    if not root.is_dir():
        print(f"error: root {root} is not a directory", file=sys.stderr)
        return 2
    config = AnalysisConfig(
        root=root,
        dirs=tuple(args.dirs) if args.dirs else DEFAULT_DIRS,
        design_path=Path(args.design) if args.design else None,
        rule_ids=tuple(args.rules.split(",")) if args.rules else None,
        extra_dirs=tuple(
            d for d in (args.include_dirs or "").split(",") if d
        ),
    )
    if args.write_docs:
        design = config.design_path or root / "DESIGN.md"
        try:
            rewritten, left = write_docs(root, design)
        except (OSError, SyntaxError) as exc:
            print(f"error: cannot write docs: {exc}", file=sys.stderr)
            return 2
        print(f"{design}: {rewritten} generated block(s) rewritten")
        for message in left:
            print(f"{design}: {message}", file=sys.stderr)
        return 1 if left else 0

    project = run_analysis(config)
    findings = project.findings
    doc = report_dict(project, args.strict)
    if args.format == "json":
        rendered = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        if args.format == "github":
            lines = render_github(findings)
        else:
            lines = [f.render() for f in findings]
        gating = _gating(findings, args.strict)
        lines.append(
            f"repro-lint: {project.files_scanned} files, "
            f"{len(findings)} finding(s) ({len(gating)} gating), "
            f"{project.inline_suppressed} inline-suppressed"
        )
        rendered = "\n".join(lines) + "\n"
    sys.stdout.write(rendered)
    if args.output:
        json_doc = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        Path(args.output).write_text(json_doc, encoding="utf-8")
    return 1 if _gating(findings, args.strict) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
