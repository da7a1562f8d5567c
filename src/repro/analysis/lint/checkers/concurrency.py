"""CONC001 — lock-discipline analysis for the threaded modules.

The service, worker, and sweep backends share mutable objects across
threads (the asyncio event loop vs. executor threads, the worker's
request handlers vs. its executor).  The repo's discipline is simple:
state that is ever mutated under a lock is *lock-guarded*, and every
other mutation of it must hold the same lock.  This checker derives the
guarded set per class from the summarized facts — no annotations
required — and flags the violations:

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
CONC101 extends the same discipline across modules.

Attributes with a genuinely single-threaded lifecycle the AST cannot
prove are declared in :data:`repro.analysis.lint.scopes.LOCK_DISCIPLINE`
with their rationale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..registry import ProgramChecker, ProgramContext, register_program_checker
from ..scopes import LOCK_DISCIPLINE, module_tail

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ...graph.summary import ClassSummary, FunctionSummary, ModuleSummary


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


@register_program_checker
class UnlockedSharedState(ProgramChecker):
    """CONC001 — guarded state mutated outside a held-lock region."""

    code = "CONC001"
    name = "unlocked-shared-state"
    description = "lock-guarded mutable state mutated without holding the lock"
    scopes = frozenset({"threaded"})

    def check(self, ctx: ProgramContext) -> Iterator[Finding]:
        for relpath, summary in ctx.files.items():
            if not self.applies(summary):
                continue
            discipline = LOCK_DISCIPLINE.get(module_tail(relpath), {})
            mutable = set(summary.mutable_globals) - discipline.get("<module>", frozenset())
            for mutation in summary.global_mutations:
                if mutation.name in mutable and not mutation.module_locked:
                    yield ctx.finding(
                        self.code,
                        f"module-level mutable '{mutation.name}' mutated from a "
                        "function in a threaded module — guard with a module lock "
                        "or move the state into an instance",
                        relpath,
                        mutation.line,
                        mutation.col,
                    )
            for cls, frames in _classes(summary):
                yield from self._check_class(ctx, relpath, cls, frames, discipline)

    def _check_class(
        self,
        ctx: ProgramContext,
        relpath: str,
        cls: ClassSummary,
        frames: list[tuple[str, FunctionSummary]],
        discipline: dict[str, frozenset[str]],
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
        guarded -= discipline.get(cls.name, frozenset())
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
                    yield ctx.finding(
                        self.code,
                        f"'{cls.name}.{mutation.attr}' is lock-guarded (mutated under "
                        f"a held lock elsewhere) but mutated in '{method}' "
                        "without holding the lock",
                        relpath,
                        mutation.line,
                        mutation.col,
                    )


__all__ = ["UnlockedSharedState"]
