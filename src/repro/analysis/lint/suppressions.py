"""Per-line and per-file suppression comments.

Syntax (the comment may share a line with code or stand alone)::

    x = random.random()      # repro-lint: disable=DET001
    # repro-lint: disable-file=WIRE001

A *line* suppression silences the named codes for findings reported on
that physical line; a *file* suppression silences them for the whole
module.  ``disable=all`` / ``disable-file=all`` silence every code —
reserve it for generated files.  Comments are recognised via
:mod:`tokenize`, so the marker text inside a string literal is inert;
only a file whose text contains a directive is tokenized.  A comment naming a code no rule has is a per-file error (the runner
checks :attr:`Suppressions.codes`), so a typo or a retired code cannot
silently stop suppressing.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from .findings import Finding

__all__ = ["Suppressions", "parse_suppressions"]

_LINE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_FILE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+)")
_ANY = re.compile(r"#\s*repro-lint:\s*disable")


@dataclass
class Suppressions:
    """Parsed suppression directives for one module."""

    by_line: dict[int, frozenset[str]] = field(default_factory=dict)
    whole_file: frozenset[str] = frozenset()

    @property
    def codes(self) -> frozenset[str]:
        """Every code any directive names (``all`` included)."""
        return self.whole_file.union(*self.by_line.values())

    def matches(self, finding: Finding) -> bool:
        if "all" in self.whole_file or finding.code in self.whole_file:
            return True
        codes = self.by_line.get(finding.line, frozenset())
        return "all" in codes or finding.code in codes


def _codes(raw: str) -> frozenset[str]:
    return frozenset(code.strip() for code in raw.split(",") if code.strip())


def parse_suppressions(source: str) -> Suppressions:
    """Extract every suppression directive from ``source``.

    Unreadable files (tokenize errors) yield no suppressions; the runner
    reports the parse failure separately.
    """
    if "repro-lint:" not in source or not _ANY.search(source):
        return Suppressions()
    by_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            file_match = _FILE.search(token.string)
            if file_match:
                whole_file.update(_codes(file_match.group(1)))
                continue
            line_match = _LINE.search(token.string)
            if line_match:
                by_line.setdefault(token.start[0], set()).update(_codes(line_match.group(1)))
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        pass
    return Suppressions(
        by_line={line: frozenset(codes) for line, codes in by_line.items()},
        whole_file=frozenset(whole_file),
    )
