"""The assembled whole-program graph: reachability and scope propagation.

:func:`build_program` takes per-file summaries, resolves every call site
(:mod:`.callgraph`), and computes for each function its **effective
scopes**: the module-path scopes from :mod:`repro.analysis.lint.scopes`
that the function either carries locally or *inherits* by being
transitively reachable from a function that carries them.  A hash helper
in a scope-free utility module that a kernel calls is — for checking
purposes — kernel code.

Propagation runs one BFS per scope over call edges (import-time edges
included: module bodies execute on first import from whichever scope
reaches them).  The ``threaded`` scope has one extra seeding rule: the
target of a ``Thread(target=...)`` / ``submit`` / ``run_in_executor``
registration is threaded no matter where the registering module lives.

Each inherited (scope, function) pair remembers one predecessor, so
checkers can print a concrete entry→sink call chain in the finding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .callgraph import Edge, Resolver, build_edges, function_id
from .summary import MODULE_FUNCTION, FunctionSummary, ModuleSummary

__all__ = ["ProgramGraph", "build_program"]


@dataclass
class ProgramGraph:
    """Program-wide view over module summaries, edges, and scopes."""

    summaries: dict[str, ModuleSummary]
    resolver: Resolver
    edges: list[Edge]
    out_edges: dict[str, list[Edge]] = field(default_factory=dict)
    inherited: dict[str, set[str]] = field(default_factory=dict)
    _pred: dict[tuple[str, str], str] = field(default_factory=dict)

    # -- lookups --------------------------------------------------------- #
    def module_of(self, fid: str) -> str:
        return fid.partition(":")[0]

    def local_scopes(self, fid: str) -> set[str]:
        return set(self.summaries[self.module_of(fid)].scopes)

    def effective_scopes(self, fid: str) -> set[str]:
        return self.local_scopes(fid) | self.inherited.get(fid, set())

    def functions(self) -> Iterator[tuple[str, str, FunctionSummary]]:
        """Every ``(fid, relpath, frame)``, sorted by module then qualname."""
        for module, summary in sorted(self.summaries.items()):
            for qualname in sorted(summary.functions):
                yield function_id(module, qualname), summary.relpath, summary.functions[qualname]

    def resolve(self, dotted: str, caller: str) -> str | None:
        """The function id ``dotted`` names inside function ``caller``'s module."""
        resolved = self.resolver.resolve_dotted(dotted, context_module=self.module_of(caller))
        return function_id(*resolved) if resolved is not None else None

    # -- provenance ------------------------------------------------------ #
    def chain(self, scope: str, fid: str, limit: int = 8) -> list[str]:
        """An example call chain through which ``fid`` inherited ``scope``.

        Returns function ids from an in-scope entry point down to ``fid``
        (inclusive); just ``[fid]`` when the scope is local to its module.
        """
        chain: list[str] = [fid]
        cursor = fid
        for _ in range(limit):
            pred = self._pred.get((scope, cursor))
            if pred is None:
                break
            cursor = pred
            chain.append(cursor)
        return list(reversed(chain))

    def describe_chain(self, scope: str, fid: str) -> str:
        """Human-readable ``a -> b -> c`` chain for finding messages."""
        parts = self.chain(scope, fid)
        if len(parts) <= 1:
            return ""
        return " -> ".join(part.replace(f":{MODULE_FUNCTION}", ":<import>") for part in parts)


def build_program(summaries_by_relpath: dict[str, ModuleSummary]) -> ProgramGraph:
    """Assemble the program graph and run scope propagation."""
    summaries: dict[str, ModuleSummary] = {}
    for summary in summaries_by_relpath.values():
        summaries[summary.module] = summary
    resolver = Resolver(summaries)
    edges = build_edges(summaries, resolver)

    graph = ProgramGraph(summaries=summaries, resolver=resolver, edges=edges)
    for edge in edges:
        graph.out_edges.setdefault(edge.caller, []).append(edge)

    all_scopes: set[str] = set()
    for summary in summaries.values():
        all_scopes.update(summary.scopes)
    all_scopes.add("threaded")

    for scope in sorted(all_scopes):
        _propagate(graph, scope)
    return graph


def _propagate(graph: ProgramGraph, scope: str) -> None:
    """BFS one scope forward along call edges."""
    queue: deque[str] = deque()
    seeded: set[str] = set()
    for module, summary in graph.summaries.items():
        if scope in summary.scopes:
            for qualname in summary.functions:
                fid = function_id(module, qualname)
                seeded.add(fid)
                queue.append(fid)
    if scope == "threaded":
        # Thread/executor registrations create threaded entry points even
        # when the registering module itself is not classified threaded.
        for edge in graph.edges:
            if edge.via_thread and edge.callee not in seeded:
                reached = graph.inherited.setdefault(edge.callee, set())
                if scope not in reached:
                    reached.add(scope)
                    graph._pred[(scope, edge.callee)] = edge.caller
                    seeded.add(edge.callee)
                    queue.append(edge.callee)

    visited = set(seeded)
    while queue:
        fid = queue.popleft()
        for edge in graph.out_edges.get(fid, ()):  # deterministic insert order
            callee = edge.callee
            if callee in visited:
                continue
            visited.add(callee)
            if scope not in graph.local_scopes(callee):
                graph.inherited.setdefault(callee, set()).add(scope)
                graph._pred[(scope, callee)] = fid
            queue.append(callee)
