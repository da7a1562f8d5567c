"""CONC001: the lock-discipline rule.

The service, worker, and sweep backends share mutable objects across
threads (the asyncio event loop vs. executor threads, the worker's
request handlers vs. its executor).  The repo's discipline is simple:
state that is ever mutated under a lock is *lock-guarded*, and every
other mutation of it must hold the same lock.  CONC001 checks it at two
reaches, from the summarized facts (no annotations required).

In a ``threaded`` module itself:

* a ``self.X = threading.Lock()/RLock()/Condition()`` assignment marks
  ``X`` as a lock attribute (``Condition(self._lock)`` counts);
* any attribute mutated inside ``with self.<lock>:`` anywhere in the
  class is *guarded*;
* a mutation of a guarded attribute outside a held-lock region — except
  in ``__init__`` (construction is single-threaded) or in a helper whose
  every intra-class call site holds the lock — is a finding;
* module-level mutable containers mutated from function bodies are
  findings unless the mutation holds a module-level lock.

Only a class's own lock attributes count for its attributes, and only
module locks for module globals.  Every ``class`` statement is judged on
its own: one nested in a function or class, or one of several
module-level definitions of a name, by its
:class:`~repro.analysis.graph.summary.LocalClass` record.

Across modules: a function reachable from a thread/executor entry point
along a call path that crosses a module boundary with no lock held at
any call on the way must hold its own lock for every mutation of its
lock-bearing class's attributes, and its module lock for every mutation
of a module global.  An unlocked path that stays inside one module is
judged by the first pass alone.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from ...graph.program import ProgramGraph
from ...graph.summary import MODULE_FUNCTION, ClassSummary, FunctionSummary, ModuleSummary
from ..findings import Finding
from ..registry import ProgramChecker, ProgramContext


def _always_locked_methods(sites: list[tuple[str, str, bool]]) -> set[str]:
    """Helpers whose every intra-class call site holds the lock.

    ``sites`` holds ``(callee, caller, locked)`` triples.  Fixpoint over
    the call graph so a lock-held helper calling another helper extends
    the held region one level at a time.
    """
    by_callee: dict[str, list[tuple[str, bool]]] = {}
    for callee, caller, locked in sites:
        by_callee.setdefault(callee, []).append((caller, locked))
    always: set[str] = set()
    while True:
        changed = False
        for callee, callers in by_callee.items():
            if callee in always or callee == "__init__":
                continue
            if all(locked or caller in always for caller, locked in callers):
                always.add(callee)
                changed = True
        if not changed:
            return always


def _classes(
    summary: ModuleSummary,
) -> Iterator[tuple[ClassSummary, list[tuple[str, FunctionSummary]]]]:
    """Every class statement with its ``(method name, frame)`` pairs."""
    records = [
        (cls, summary.functions)
        for cls in summary.classes.values()
        if cls.definitions == 1
    ]
    records += [(local.cls, local.functions) for local in summary.local_classes]
    for cls, functions in records:
        frames = [
            (method, functions[f"{cls.name}.{method}"])
            for method in dict.fromkeys(cls.methods)
            if f"{cls.name}.{method}" in functions
        ]
        yield cls, frames


class LockDiscipline(ProgramChecker):
    """CONC001 — guarded state mutated outside a held-lock region."""

    code = "CONC001"
    description = (
        "lock-guarded state mutated without holding its lock, in a threaded "
        "module or on a cross-module thread-reachable path"
    )

    def check(self, ctx: ProgramContext) -> Iterator[Finding]:
        reported: set[tuple[str, int, int]] = set()
        for finding in self._local(ctx):
            reported.add((finding.path, finding.line, finding.column))
            yield finding
        for finding in self._cross_module(ctx):
            if (finding.path, finding.line, finding.column) not in reported:
                yield finding

    # -- zero hops: the threaded modules themselves ---------------------- #
    def _local(self, ctx: ProgramContext) -> Iterator[Finding]:
        for relpath, summary in ctx.files.items():
            if "threaded" not in summary.scopes:
                continue
            mutable = set(summary.mutable_globals)
            for mutation in summary.global_mutations:
                if mutation.name in mutable and not mutation.module_locked:
                    yield Finding(
                        self.code,
                        f"module-level mutable '{mutation.name}' mutated from a "
                        "function in a threaded module — guard with a module lock "
                        "or move the state into an instance",
                        relpath,
                        mutation.line,
                        mutation.col,
                    )
            for cls, frames in _classes(summary):
                yield from self._check_class(relpath, cls, frames)

    def _check_class(
        self,
        relpath: str,
        cls: ClassSummary,
        frames: list[tuple[str, FunctionSummary]],
    ) -> Iterator[Finding]:
        if not cls.lock_attrs:
            return
        guarded = {
            m.attr
            for method, fn in frames
            if method != "__init__"
            for m in fn.mutations
            if m.class_locked
        }
        guarded -= set(cls.lock_attrs)
        if not guarded:
            return
        always_locked = _always_locked_methods(
            [
                (site.target, method, site.class_locked)
                for method, fn in frames
                for site in fn.calls
                if site.kind == "self" and not site.via_thread and site.target in cls.methods
            ]
        )
        for method, fn in frames:
            if method in ("__init__", "__new__") or method in always_locked:
                continue
            for mutation in fn.mutations:
                if mutation.attr in guarded and not mutation.class_locked:
                    yield Finding(
                        self.code,
                        f"'{cls.name}.{mutation.attr}' is lock-guarded (mutated under "
                        f"a held lock elsewhere) but mutated in '{method}' "
                        "without holding the lock",
                        relpath,
                        mutation.line,
                        mutation.col,
                    )

    # -- across modules: unlocked thread paths --------------------------- #
    def _cross_module(self, ctx: ProgramContext) -> Iterator[Finding]:
        graph = ctx.graph
        reachable = _unlocked_cross_module(graph)
        for fid, relpath, fn in graph.functions():
            if fid not in reachable:
                continue
            module, _, qualname = fid.partition(":")
            summary = graph.summaries[module]
            entry = reachable[fid]
            chain = f" [unlocked thread path: {entry} -> {fid}]" if entry != fid else ""
            if fn.cls and not qualname.endswith(".__init__"):
                cls = summary.classes.get(fn.cls)
                if cls is not None and cls.lock_attrs:
                    lock = cls.lock_attrs[0]
                    for mutation in fn.mutations:
                        if mutation.class_locked:
                            continue
                        yield Finding(
                            self.code,
                            f"'self.{mutation.attr}' of lock-bearing class "
                            f"{fn.cls} mutated without holding 'self.{lock}' "
                            f"on a cross-module thread-reachable path{chain}",
                            relpath,
                            mutation.line,
                            mutation.col,
                        )
            if summary.module_locks and qualname != MODULE_FUNCTION:
                for mutation in summary.global_mutations:
                    # Global mutations are recorded module-wide; attribute
                    # each to its containing function by line range.
                    if mutation.module_locked or not _within(fn, summary, mutation.line):
                        continue
                    yield Finding(
                        self.code,
                        f"module global '{mutation.name}' mutated without "
                        f"holding module lock "
                        f"'{summary.module_locks[0]}' on a cross-module "
                        f"thread-reachable path{chain}",
                        relpath,
                        mutation.line,
                        mutation.col,
                    )


def _within(fn: FunctionSummary, summary: ModuleSummary, line: int) -> bool:
    """``line`` falls inside ``fn`` (next function starts after it)."""
    starts = sorted(
        f.line for f in summary.functions.values() if f.qualname != MODULE_FUNCTION
    )
    following = [s for s in starts if s > fn.line]
    upper = following[0] if following else float("inf")
    return fn.line <= line < upper


def _unlocked_cross_module(graph: ProgramGraph) -> dict[str, str]:
    """Functions reachable from a threaded entry with no lock held on the
    way, along a path that crossed a module boundary.

    Returns ``fid → entry fid`` for chain reporting.
    """
    # State: (fid, crossed-module?) pairs; BFS over unlocked edges.
    queue: deque[tuple[str, bool, str]] = deque()
    seen: set[tuple[str, bool]] = set()
    result: dict[str, str] = {}

    for fid, _, _ in graph.functions():
        if "threaded" in graph.local_scopes(fid):
            queue.append((fid, False, fid))
            seen.add((fid, False))
    for edge in graph.edges:
        if edge.via_thread and not edge.under_lock:
            crossed = graph.module_of(edge.caller) != graph.module_of(edge.callee)
            state = (edge.callee, crossed)
            if state not in seen:
                seen.add(state)
                queue.append((edge.callee, crossed, edge.caller))
                if crossed:
                    result.setdefault(edge.callee, edge.caller)

    while queue:
        fid, crossed, entry = queue.popleft()
        for edge in graph.out_edges.get(fid, ()):
            if edge.under_lock:
                continue
            next_crossed = crossed or (
                graph.module_of(edge.caller) != graph.module_of(edge.callee)
            )
            state = (edge.callee, next_crossed)
            if state in seen:
                continue
            seen.add(state)
            if next_crossed:
                result.setdefault(edge.callee, entry)
            queue.append((edge.callee, next_crossed, entry))
    return result


__all__ = ["LockDiscipline"]
