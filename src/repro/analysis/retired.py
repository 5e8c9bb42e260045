"""RET001 — deleted code stays deleted: ``vocabulary.RETIRED``, enforced.

Each ``RETIRED`` row names a regex and the paths it may not match in (or
match in more than its bound), or paths that may not exist.  The rule
reads the table with ``ast.literal_eval`` (nothing under the root is
imported, so it works on fixture trees), searches every line of every
file in a row's scope as text, whatever its extension, and reports each
violation at its ``file:line`` with the row's reason.  A tree whose
vocabulary has no ``RETIRED`` table gets no finding; a vocabulary that
does not parse is ``VOC001``'s.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any

from repro.analysis.docs import VOCABULARY_RELPATH, load_vocabulary
from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register


def matching_lines(
    root: Path, pattern: str, scope: tuple[str, ...], texts: dict[str, str]
) -> list[tuple[str, int]]:
    """``(path, line)`` of every line ``pattern`` matches in the files the
    scope covers: every file under each listed path, less each ``!path`` (a
    file or a directory), ``__pycache__``, dot-directories and the
    vocabulary, whose rows spell the names.  ``texts`` keeps each file's
    text for the rest of the run."""
    line_re, file_re = re.compile(pattern), re.compile(pattern, re.MULTILINE)
    excluded = [entry[1:] for entry in scope if entry.startswith("!")]
    files: set[str] = set()
    for entry in scope:
        base = root / entry
        if entry.startswith("!") or not base.exists():
            continue
        for path in [base] if base.is_file() else sorted(base.rglob("*")):
            rel = path.relative_to(root).as_posix()
            dirs = rel.split("/")[:-1]
            if (
                path.is_file()
                and rel != VOCABULARY_RELPATH
                and not any(d.startswith(".") or d == "__pycache__" for d in dirs)
                and not any(rel == ex or rel.startswith(ex + "/") for ex in excluded)
            ):
                files.add(rel)
    hits = []
    for rel in sorted(files):
        if rel not in texts:
            texts[rel] = (root / rel).read_bytes().decode("utf-8", errors="replace")
        # a line that matches alone also matches in its file under re.M, so
        # a file with no match (most of them) has no line to look at
        if file_re.search(texts[rel]):
            lines = enumerate(texts[rel].split("\n"), start=1)
            hits += [(rel, lineno) for lineno, line in lines if line_re.search(line)]
    return hits


@register
class RetiredRule(Rule):
    """RET001 — see the module docstring."""

    id = "RET001"
    title = (
        "no `RETIRED` row of `src/repro/vocabulary.py` is violated: its pattern matches no line"
        " in its scope (or no more lines than its bound, `exactly` lines when exact), and no"
        " path row's path exists"
    )
    rationale = (
        "each row is a twin that was deleted — a second scheduler, record, protocol, emission"
        " path or kernel body; one that comes back splits the behaviour it duplicated, and the"
        " next deletion is one row of one table, rendered into this file"
    )
    suppress_hint = "if a retired name is meant to come back, delete or narrow its row"
    severity = Severity.ERROR
    dirs = ()  # each row carries its own scope
    extra_dirs_ok = False

    def finalize(self, project) -> None:
        try:
            loaded = load_vocabulary(project.root)
        except SyntaxError:
            return  # a vocabulary that is not literal is VOC001's finding
        if loaded is not None:
            texts: dict[str, str] = {}  # a file in several scopes is read once
            for row in loaded[0].get("RETIRED", ()):
                self._check(project, row, loaded[1], texts)

    def _check(
        self, project, row: dict[str, Any], lines: dict[str, int], texts: dict[str, str]
    ) -> None:
        root = project.root
        why = f"retired in PR {row['pr']}: {row['reason']}"
        if "paths" in row:
            for path in row["paths"]:
                if (root / path).exists():
                    project.report(self, path, 1, 1, f"`{path}` exists — {why}")
            return
        text, scope, bound = row["pattern"], row["scope"], row.get("bound", "at most 0")
        hits = matching_lines(root, text, scope, texts)
        kind, _, n = bound.rpartition(" ")  # "at most N" or "exactly N"
        exact, limit = kind == "exactly", int(n)
        if limit == 0:
            for path, line in hits:
                project.report(self, path, line, 1, f"`{text}` matches — {why}")
        elif len(hits) > limit or (exact and len(hits) < limit):
            sites = ", ".join(f"{path}:{line}" for path, line in hits) or "none"
            message = (
                f"`{text}` matches {len(hits)} line(s) in {', '.join(scope)} ({sites});"
                f" its bound is `{bound}` — {why}"
            )
            # one finding: at the first line past the bound, or at the row
            site = hits[limit] if len(hits) > limit else (VOCABULARY_RELPATH, lines.get(text, 1))
            project.report(self, *site, 1, message)
