"""The :class:`Finding` record every checker emits."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class FindingStatus(enum.Enum):
    """How the runner disposed of a finding."""

    NEW = "new"
    SUPPRESSED = "suppressed"


@dataclass
class Finding:
    """One rule violation at one source location.

    ``path`` is stored POSIX-style and relative to the lint root so the
    JSON report is machine-independent.
    """

    code: str
    message: str
    path: str
    line: int
    column: int
    status: FindingStatus = FindingStatus.NEW

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.code)

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "status": self.status.value,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"
