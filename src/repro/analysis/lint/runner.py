"""Walk paths, summarize modules, run the rules, apply suppressions.

One engine: each file is parsed and summarized once
(:func:`~repro.analysis.graph.summary.summarize_module`), the summaries
are assembled into the :class:`~repro.analysis.graph.program.ProgramGraph`,
and every :class:`~repro.analysis.lint.registry.ProgramChecker` runs
over it.  Suppression comments are the only way to accept a
finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .findings import Finding, FindingStatus
from .registry import ProgramContext, all_program_checkers
from .suppressions import Suppressions, parse_suppressions

if TYPE_CHECKING:  # pragma: no cover - runtime import is lazy (cycle)
    from ..graph.summary import ModuleSummary

__all__ = ["LintReport", "lint_paths", "lint_source", "lint_sources"]

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules", ".eggs"})


@dataclass
class LintReport:
    """The outcome of one lint run.

    ``findings`` holds every finding with its disposition; a run is clean
    iff no finding is new and no file had an error (exit code 0).
    """

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def new(self) -> list[Finding]:
        return [f for f in self.findings if f.status is FindingStatus.NEW]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.status is FindingStatus.SUPPRESSED]

    @property
    def clean(self) -> bool:
        return not self.new and not self.parse_errors

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def counts(self) -> dict[str, int]:
        """Per-code counts of *new* findings (deterministic ordering)."""
        counts: dict[str, int] = {}
        for finding in self.new:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))


def _iter_python_files(paths: Sequence[str | Path], root: Path) -> tuple[list[Path], list[str]]:
    """The sorted, de-duplicated ``.py`` files under ``paths``, and an
    error for every path that does not exist."""
    files: set[Path] = set()
    missing: list[str] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if not path.exists():
            missing.append(f"{raw}: no such file or directory")
        elif path.is_dir():
            files.update(
                candidate
                for candidate in path.rglob("*.py")
                if not _SKIP_DIRS & set(candidate.parts)
            )
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files), missing


def _relpath(file: Path, root: Path) -> str:
    try:
        return file.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return file.as_posix()


def lint_source(source: str, relpath: str) -> list[Finding]:
    """Lint one in-memory module as a one-file program, suppressions
    applied.  Per-file errors are reported by :func:`lint_sources`.
    """
    return lint_sources({relpath: source}).findings


def lint_sources(sources: Mapping[str, str]) -> LintReport:
    """Lint an in-memory multi-file tree (synthetic-package test surface).

    ``sources`` maps relpath → source text.  Runs the same engine as
    :func:`lint_paths`, minus the filesystem.  A file that cannot be
    parsed, or whose scope comment names an unknown scope, is left out
    with an error; one whose suppression comment names an unknown code is
    linted and reported with an error.
    """
    from ..graph.program import build_program
    from ..graph.summary import summarize_module

    checkers = all_program_checkers()
    known = {checker.code for checker in checkers} | {"all"}
    report = LintReport(files_scanned=len(sources))
    summaries: dict[str, "ModuleSummary"] = {}
    suppressions: dict[str, Suppressions] = {}
    for relpath, source in sorted(sources.items()):
        try:
            summaries[relpath] = summarize_module(relpath, source)
        except (SyntaxError, ValueError) as exc:
            # Unparsable source, or an unknown scope in a scope comment.
            report.parse_errors.append(f"{relpath}: {exc}")
            continue
        suppressions[relpath] = parse_suppressions(source)
        unknown = suppressions[relpath].codes - known
        if unknown:
            report.parse_errors.append(
                f"{relpath}: unknown lint code(s) {sorted(unknown)} in a "
                f"disable comment; known: {sorted(known - {'all'})}"
            )
    if summaries:
        ctx = ProgramContext(graph=build_program(summaries), files=summaries)
        for checker in checkers:
            for finding in checker.check(ctx):
                if suppressions[finding.path].matches(finding):
                    finding.status = FindingStatus.SUPPRESSED
                report.findings.append(finding)
    report.findings.sort(key=Finding.sort_key)
    return report


def lint_paths(paths: Sequence[str | Path], *, root: str | Path | None = None) -> LintReport:
    """Lint every ``.py`` file under ``paths`` and assemble a report.

    ``root`` anchors the relative paths recorded in findings (defaults to
    the current directory), which is what makes the JSON report stable
    across machines.  ``files_scanned`` counts every file found, readable
    or not; a path that does not exist is an error.
    """
    anchor = Path(root) if root is not None else Path.cwd()
    files, errors = _iter_python_files(paths, anchor)
    sources: dict[str, str] = {}
    for file in files:
        relpath = _relpath(file, anchor)
        try:
            sources[relpath] = file.read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError) as exc:
            errors.append(f"{relpath}: {exc}")

    report = lint_sources(sources)
    report.files_scanned = len(files)
    report.parse_errors[:0] = errors
    return report
