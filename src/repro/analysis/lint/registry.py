"""The rule catalogue and the program context every rule runs against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..graph.program import ProgramGraph
    from ..graph.summary import ModuleSummary

__all__ = ["ProgramChecker", "ProgramContext", "all_program_checkers"]


@dataclass
class ProgramContext:
    """The whole-program view every checker runs against.

    ``files`` maps every summarized relpath to its summary, including a
    file whose module name another file shadows in ``graph``.
    """

    graph: "ProgramGraph"
    files: dict[str, "ModuleSummary"]


class ProgramChecker:
    """Base class: set ``code`` and ``description``, yield findings.

    A checker sees every module at once and reports one hazard, both in
    modules that carry the hazard's scope themselves (zero hops) and in
    the functions that reach it over call edges.
    """

    code: str = ""
    description: str = ""

    def check(self, ctx: ProgramContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


def all_program_checkers() -> list[ProgramChecker]:
    """One instance of every rule, sorted by code."""
    # Deferred to first use: the rules import the graph package, whose
    # summariser imports the fact iterators from the checkers package.
    from .checkers.concurrency import LockDiscipline
    from .checkers.determinism import Determinism
    from .checkers.wire import WireCanonicality

    return [LockDiscipline(), Determinism(), WireCanonicality()]
