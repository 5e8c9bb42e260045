"""The vocabulary reader and the DESIGN.md generator.

The DESIGN.md tables that restate ``src/repro/vocabulary.py`` (the
retired-code table among them; and the lint-rule table, which restates
each rule's ``title``/``rationale``) sit between ``<!-- generated:NAME
-->`` and ``<!-- /generated:NAME -->`` markers and are written by
``python -m repro.analysis --write-docs``.
The check (``VOC001``) is the same rendering compared with what the file
holds, so a hand edit inside a block and a vocabulary row added without
``--write-docs`` are the same finding.
"""

from __future__ import annotations

import ast
import difflib
import re
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.analysis.engine import const_str
from repro.analysis.registry import all_rules

VOCABULARY_RELPATH = "src/repro/vocabulary.py"

_BLOCK_RE = re.compile(r"(<!-- generated:([a-z-]+) -->)(.*?)(<!-- /generated:\2 -->)", re.DOTALL)


def load_vocabulary(root: Path) -> tuple[dict[str, Any], dict[str, int]] | None:
    """``(values, lines)``: each assignment's literal value, and the first
    line every string in the file appears on.  None when the tree has no
    vocabulary (or one that does not parse — the engine's E000); a
    :class:`SyntaxError` carrying the line on a value that is not a literal."""
    path = root / VOCABULARY_RELPATH
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    values: dict[str, Any] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            name = ast.unparse(node.targets[0])
            try:
                values[name] = ast.literal_eval(node.value)
            except ValueError:
                raise SyntaxError(
                    f"`{name}` is not a plain literal — the vocabulary is read with "
                    "ast.literal_eval, so nothing in it may be computed",
                    (str(path), node.lineno, node.col_offset + 1, None),
                ) from None
    lines: dict[str, int] = {}
    for node in ast.walk(tree):
        text = const_str(node)
        if text is not None:
            lines[text] = min(node.lineno, lines.get(text, node.lineno))
    return values, lines


def _ticked(names: Any) -> str:
    return ", ".join(f"`{n}`" for n in names)


def _failure_kinds(cell: str, v: dict[str, Any]) -> str:
    """``cell`` with the vocabulary's FAILURE_KINDS spelt where it asks:
    ``{FAILURE_KINDS}`` backticked, ``{FAILURE_KINDS:<sep>}`` joined by ``<sep>``."""
    if "{FAILURE_KINDS" not in cell:
        return cell
    kinds = v["FAILURE_KINDS"]
    cell = cell.replace("{FAILURE_KINDS}", _ticked(kinds))
    return re.sub(r"\{FAILURE_KINDS:([^}]+)\}", lambda m: m.group(1).join(kinds), cell)


def _table(*head: str, rows: list[tuple[str, ...]]) -> str:
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n" + "\n".join(lines) + "\n"


def _trace_schema(v: dict[str, Any]) -> str:
    kinds, notes = v["TRACE_KINDS"], dict(v["TRACE_TABLE_NOTES"])
    namespaces: dict[str, list[str]] = {}
    for kind in kinds:
        ns, _, event = kind.partition(".")
        namespaces.setdefault(ns + ".", []).append(event)
    rows = []
    for ns, events in namespaces.items():
        noted = [(e, _failure_kinds(notes.pop(ns + e, ""), v)) for e in events]
        tail = notes.pop(ns, "")
        if not tail and len(events) == 1 and not noted[0][1]:
            tail = kinds[ns + events[0]]
        sep = ", " if any(note for _, note in noted) else " / "
        cell = sep.join(f"`{e}` ({note})" if note else f"`{e}`" for e, note in noted)
        rows.append((f"`{ns}`", f"{cell} — {tail}" if tail else cell))
    if notes:
        raise ValueError(f"TRACE_TABLE_NOTES keys name no kind or namespace: {sorted(notes)}")
    rows += [(f"`{ns}`", note) for ns, note in v["TRACE_DYNAMIC"].items()]
    return _table("prefix", "events", rows=rows)


def _metric_schema(v: dict[str, Any]) -> str:
    rows = [
        (_ticked(metrics), " / ".join(dict.fromkeys(metrics.values())),
         _failure_kinds(labels, v), emitter)
        for metrics, labels, emitter in v["METRICS"]
    ]
    return _table("metric", "kind", "labels", "emitted by", rows=rows)


def _slo_kinds(v: dict[str, Any]) -> str:
    rows = [(f"`{kind}`", f"{bound} s", signal) for kind, (bound, signal) in v["SLOS"].items()]
    return _table("kind", "default bound", "signal", rows=rows)


def _health_states(v: dict[str, Any]) -> str:
    rows = [(f"`{state}`", meaning) for state, meaning in v["HEALTH"].items()]
    return _table("state", "meaning", rows=rows)


def _scenario_fields(v: dict[str, Any]) -> str:
    rows = [
        (f"`{field}`", shape, _failure_kinds(notes, v))
        for field, (shape, notes) in v["SCENARIO_FIELDS"].items()
    ]
    return _table("field", "shape", "notes", rows=rows)


def _scheme_hooks(v: dict[str, Any]) -> str:
    rows = [(f"`{hook}`", kind, driven) for hook, (kind, driven) in v["SCHEME_HOOKS"].items()]
    return _table("hook", "kind", "driven from", rows=rows)


def _retired(v: dict[str, Any]) -> str:
    def code(text: str) -> str:
        return "`" + text.replace("|", "\\|") + "`"

    rows = [
        (
            str(row["pr"]),
            code(row["pattern"]) if "pattern" in row else "(path)",
            ", ".join(map(code, row.get("scope") or row["paths"])),
            row.get("bound", "0") if "pattern" in row else "must not exist",
            row["reason"],
        )
        for row in v["RETIRED"]
    ]
    return _table("PR", "pattern", "scope", "lines allowed", "what replaced it", rows=rows)


def _lint_rules(_: dict[str, Any]) -> str:
    rows = [(f"`{cls.id}`", cls.title, cls.rationale) for cls in all_rules()]
    return _table("rule", "invariant", "why it matters", rows=rows)


#: block name -> its renderer over the vocabulary's values
BLOCKS: dict[str, Callable[[dict[str, Any]], str]] = {
    "trace-schema": _trace_schema,
    "metric-schema": _metric_schema,
    "slo-kinds": _slo_kinds,
    "health-states": _health_states,
    "scenario-fields": _scenario_fields,
    "scheme-hooks": _scheme_hooks,
    "phases": lambda v: _ticked(v["PHASES"]),
    "retired": _retired,
    "lint-rules": _lint_rules,
}


def check_blocks(text: str, values: dict[str, Any]) -> tuple[str, list[tuple[int, str]]]:
    """``text`` with every generated block current, and one ``(line,
    message)`` per block that was not (or is missing)."""
    problems: list[tuple[int, str]] = []
    seen: set[str] = set()

    def current(m: re.Match[str]) -> str:
        name, line = m.group(2), text.count("\n", 0, m.start()) + 1
        seen.add(name)
        if name not in BLOCKS:
            return m.group(0)  # its real name will be reported missing
        try:
            body = BLOCKS[name](values)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append((line, f"generated block `{name}` cannot be rendered: {exc!r}"))
            return m.group(0)
        if body != m.group(3):
            old, new = m.group(3).splitlines(), body.splitlines()
            diff = difflib.unified_diff(old, new, "DESIGN.md", "generated", n=0, lineterm="")
            message = (
                f"generated block `{name}` is stale: edit {VOCABULARY_RELPATH} (a rule's "
                "`title` / `rationale` for `lint-rules`), never the block, and run "
                "`python -m repro.analysis --write-docs`"
            )
            problems.append((line, "\n".join([message, *diff])))
        return m.group(1) + body + m.group(4)

    fresh = _BLOCK_RE.sub(current, text)
    problems += [
        (1, f"no `<!-- generated:{name} -->` block — its table is hand-written")
        for name in BLOCKS
        if name not in seen
    ]
    return fresh, sorted(problems)


def write_docs(root: Path, design: Path) -> tuple[int, list[str]]:
    """Rewrite the stale blocks of ``design`` in place: how many there
    were, and what rewriting cannot fix (a missing or unrenderable block)."""
    loaded = load_vocabulary(root)
    if loaded is None:
        raise FileNotFoundError(root / VOCABULARY_RELPATH)
    text = design.read_text(encoding="utf-8")
    fresh, problems = check_blocks(text, loaded[0])
    if fresh != text:
        design.write_text(fresh, encoding="utf-8")
    left = [message for _, message in check_blocks(fresh, loaded[0])[1]]
    return len(problems) - len(left), left
