"""Walk paths, summarize modules, run the rules, apply suppressions + baseline.

One engine: each file is parsed and summarized once
(:func:`~repro.analysis.graph.summary.summarize_module`), the summaries
are assembled into the :class:`~repro.analysis.graph.program.ProgramGraph`,
and every registered :class:`~repro.analysis.lint.registry.ProgramChecker`
runs over it.  A rule that judges a module by its own scope (DET001) reads
the same facts as the one that follows them along call edges (DET101).
Suppression comments apply to every finding; the baseline is consumed
once, over the whole list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .baseline import Baseline, missing_files
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

    ``findings`` holds every finding with its disposition; ``new`` is the
    gate — a run is clean iff ``new`` is empty (exit code 0).
    """

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[str] = field(default_factory=list)
    stale_baseline: dict[str, int] = field(default_factory=dict)
    baseline_missing_files: list[str] = field(default_factory=list)

    @property
    def new(self) -> list[Finding]:
        return [f for f in self.findings if f.status is FindingStatus.NEW]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.status is FindingStatus.SUPPRESSED]

    @property
    def baselined(self) -> list[Finding]:
        return [f for f in self.findings if f.status is FindingStatus.BASELINED]

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


def _iter_python_files(paths: Sequence[str | Path], root: Path) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS & set(candidate.parts):
                    files.append(candidate)
        elif path.suffix == ".py":
            files.append(path)
    # De-duplicate while preserving deterministic sorted order.
    seen: set[Path] = set()
    unique: list[Path] = []
    for file in sorted(files):
        if file not in seen:
            seen.add(file)
            unique.append(file)
    return unique


def _relpath(file: Path, root: Path) -> str:
    try:
        return file.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return file.as_posix()


def lint_source(source: str, relpath: str) -> list[Finding]:
    """Lint one in-memory module as a one-file program; suppressions
    applied, no baseline.  Parse errors are reported by :func:`lint_sources`.
    """
    return lint_sources({relpath: source}).findings


def _run_rules(
    summaries: dict[str, "ModuleSummary"], sources: Mapping[str, str]
) -> list[Finding]:
    """Every registered rule over the program graph, suppressions applied."""
    from ..graph.program import build_program

    if not summaries:
        return []
    ctx = ProgramContext(
        graph=build_program(summaries),
        files=summaries,
        sources={relpath: sources[relpath].splitlines() for relpath in summaries},
    )
    suppressions: dict[str, Suppressions] = {}  # tokenized only where findings land
    findings: list[Finding] = []
    for checker in all_program_checkers():
        for finding in checker.check(ctx):
            if finding.path not in suppressions:
                suppressions[finding.path] = parse_suppressions(sources[finding.path])
            if suppressions[finding.path].matches(finding):
                finding.status = FindingStatus.SUPPRESSED
            findings.append(finding)
    return findings


def lint_sources(sources: Mapping[str, str]) -> LintReport:
    """Lint an in-memory multi-file tree (synthetic-package test surface).

    ``sources`` maps relpath → source text.  Runs the same engine as
    :func:`lint_paths`, minus filesystem and baseline concerns.
    """
    from ..graph.summary import summarize_module

    report = LintReport(files_scanned=len(sources))
    summaries: dict[str, "ModuleSummary"] = {}
    for relpath, source in sorted(sources.items()):
        try:
            summaries[relpath] = summarize_module(relpath, source)
        except (SyntaxError, ValueError) as exc:
            # Unparsable source, or an unknown scope in a scope comment.
            report.parse_errors.append(f"{relpath}: {exc}")
    report.findings = _run_rules(summaries, sources)
    report.findings.sort(key=Finding.sort_key)
    return report


def lint_paths(
    paths: Sequence[str | Path],
    *,
    root: str | Path | None = None,
    baseline: Baseline | None = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` and assemble a report.

    ``root`` anchors the relative paths recorded in findings (defaults to
    the current directory), which is what makes the committed baseline
    and the JSON report stable across machines.  ``files_scanned`` counts
    every file found, readable or not.
    """
    anchor = Path(root) if root is not None else Path.cwd()
    files = _iter_python_files(paths, anchor)
    sources: dict[str, str] = {}
    read_errors: list[str] = []
    for file in files:
        relpath = _relpath(file, anchor)
        try:
            sources[relpath] = file.read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError) as exc:
            read_errors.append(f"{relpath}: {exc}")

    report = lint_sources(sources)
    report.files_scanned = len(files)
    report.parse_errors[:0] = read_errors
    if baseline is not None:
        for finding in report.findings:
            if finding.status is FindingStatus.NEW:
                baseline.consume(finding)
        report.stale_baseline = baseline.unused()
        report.baseline_missing_files = missing_files(baseline, anchor)
    return report
