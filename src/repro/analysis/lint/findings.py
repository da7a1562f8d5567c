"""The :class:`Finding` record every checker emits.

A finding is identified for baseline purposes by ``(path, code,
fingerprint-of-source-line)`` rather than by line *number*, so unrelated
edits above a pre-existing finding do not invalidate the committed
baseline; moving or editing the offending line itself does, which is
exactly when a human should re-decide whether the exemption still holds.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Any


class FindingStatus(enum.Enum):
    """How the runner disposed of a finding."""

    NEW = "new"
    SUPPRESSED = "suppressed"
    BASELINED = "baselined"


@dataclass
class Finding:
    """One rule violation at one source location.

    ``path`` is stored POSIX-style and relative to the lint root so the
    committed baseline and the JSON report are machine-independent.
    """

    code: str
    message: str
    path: str
    line: int
    column: int
    snippet: str = ""
    status: FindingStatus = FindingStatus.NEW

    def baseline_key(self) -> str:
        """Stable identity used for baseline matching (line-number free)."""
        digest = hashlib.sha256(self.snippet.strip().encode("utf-8")).hexdigest()[:16]
        return f"{self.path}::{self.code}::{digest}"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.code)

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "snippet": self.snippet,
            "status": self.status.value,
            "baseline_key": self.baseline_key(),
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"
