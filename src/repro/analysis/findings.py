"""Finding records and their canonical report order."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class Severity:
    """Finding severities (plain strings so JSON output stays trivial)."""

    ERROR = "error"
    WARNING = "warning"

    ORDER = {ERROR: 0, WARNING: 1}

    @classmethod
    def valid(cls, value: str) -> bool:
        return value in cls.ORDER


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    ``path`` is POSIX-relative to the analysis root so findings are
    machine-independent.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.severity}: {self.message}"


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Canonical report order: location first, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
