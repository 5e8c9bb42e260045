"""Shared AST helpers for the analysis engine, its rules and the docs generator.

Leaf module: imports nothing from the rest of ``repro.analysis``.  The
engine re-exports the helpers under their historical names for rule
modules and tests.
"""

from __future__ import annotations

import ast
import re

# `# repro-lint: disable=DET001` or `# repro-lint: disable=DET001,DET005`
# or `# repro-lint: disable=all` — suppresses matching rules on that line.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Per-line inline suppression sets (1-based line numbers)."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            out[lineno] = {tok.strip() for tok in m.group(1).split(",") if tok.strip()}
    return out


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted origin, for every import binding.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import monotonic as mono`` -> ``{"mono": "time.monotonic"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                local = a.asname or a.name.split(".", 1)[0]
                aliases[local] = a.name if a.asname else a.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom):
            mod = ("." * node.level) + (node.module or "")
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{mod}.{a.name}" if mod else a.name
    return aliases


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def receiver_tail(func: ast.AST) -> str | None:
    """For a call ``<recv>.method(...)``: the last component of ``recv``.

    ``env.telemetry.counter`` -> ``"telemetry"``; ``telem.counter`` ->
    ``"telem"``; anything without a Name/Attribute receiver -> None.
    """
    if not isinstance(func, ast.Attribute):
        return None
    recv = func.value
    if isinstance(recv, ast.Attribute):
        return recv.attr
    if isinstance(recv, ast.Name):
        return recv.id
    return None


def const_str(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def canonical_name(imports: dict[str, str], node: ast.AST) -> str | None:
    """Dotted name of ``node`` with its head import-resolved:
    ``np.random.seed`` -> ``numpy.random.seed``."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = imports.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


__all__ = [
    "canonical_name",
    "const_str",
    "dotted_name",
    "import_aliases",
    "parse_suppressions",
    "receiver_tail",
]
