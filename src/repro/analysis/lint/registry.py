"""The checker registry and the program context every rule runs against."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Type

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..graph.program import ProgramGraph
    from ..graph.summary import ModuleSummary

__all__ = [
    "LocalFactChecker",
    "ProgramChecker",
    "ProgramContext",
    "all_program_checkers",
    "register_program_checker",
]


@dataclass
class ProgramContext:
    """The whole-program view every checker runs against.

    ``files`` maps every summarized relpath to its summary (including a
    file whose module name another file shadows in ``graph``);
    ``sources`` maps it to its source lines, so findings can carry the
    snippet the baseline keys on.
    """

    graph: "ProgramGraph"
    files: dict[str, "ModuleSummary"] = field(default_factory=dict)
    sources: dict[str, list[str]] = field(default_factory=dict)

    def snippet(self, relpath: str, line: int) -> str:
        """The stripped source text of a 1-indexed line ('' out of range)."""
        lines = self.sources.get(relpath, [])
        if 1 <= line <= len(lines):
            return lines[line - 1].strip()
        return ""

    def finding(
        self, code: str, message: str, relpath: str, line: int, column: int
    ) -> Finding:
        return Finding(
            code=code,
            message=message,
            path=relpath,
            line=line,
            column=column,
            snippet=self.snippet(relpath, line),
        )


class ProgramChecker:
    """Base class: subclass, set the class attributes, yield findings.

    A checker sees every module at once.  ``scopes`` names the module
    scopes a rule polices in the module itself (``None``: every module,
    or a rule that decides from each function's propagated scopes).
    """

    code: str = ""
    name: str = ""
    description: str = ""
    scopes: frozenset[str] | None = None

    def check(self, ctx: ProgramContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def applies(self, summary: "ModuleSummary") -> bool:
        return self.scopes is None or bool(self.scopes & set(summary.scopes))


class LocalFactChecker(ProgramChecker):
    """A rule over a module's own recorded facts: the zero-hop case.

    Reports every fact of ``kind`` in each module that itself carries one
    of ``scopes`` — the same facts the whole-program rules follow along
    call edges into helpers.
    """

    kind: str = ""

    def check(self, ctx: ProgramContext) -> Iterator[Finding]:
        for relpath, summary in ctx.files.items():
            if not self.applies(summary):
                continue
            frame_facts = [f for fn in summary.functions.values() for f in fn.det_facts]
            for fact in frame_facts + summary.facts:
                if fact.kind == self.kind:
                    yield ctx.finding(self.code, fact.message, relpath, fact.line, fact.col)


_CHECKERS: dict[str, Type[ProgramChecker]] = {}


def register_program_checker(cls: Type[ProgramChecker]) -> Type[ProgramChecker]:
    """Class decorator adding a checker to the registry (code must be unique)."""
    if not cls.code:
        raise ValueError(f"checker {cls.__name__} declares no code")
    existing = _CHECKERS.get(cls.code)
    if existing is not None and existing is not cls:
        raise ValueError(f"checker code {cls.code!r} already registered by {existing.__name__}")
    _CHECKERS[cls.code] = cls
    return cls


def all_program_checkers() -> list[ProgramChecker]:
    """One instance of every registered checker, sorted by code."""
    # Importing the rule modules registers them.  Deferred to first use:
    # the rules import the graph package, whose summariser imports the
    # fact iterators from the checkers package.
    from .checkers import concurrency, determinism, interprocedural, registry_conformance  # noqa: F401

    return [_CHECKERS[code]() for code in sorted(_CHECKERS)]
