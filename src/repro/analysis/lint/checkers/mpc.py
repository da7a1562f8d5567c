"""MPC001: callables on the MPC round-dispatch surface must be importable.

The distributed protocol ships the callable handed to
``MPCContext.map_round`` / ``SweepRoundExecutor.run_round`` by import
path (:func:`repro.distributed.protocol.callable_path`), which cannot
name ``<locals>`` or ``<lambda>`` objects: the defect would only explode
at sweep time on a remote worker.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from ..registry import ProgramChecker, ProgramContext

__all__ = ["RoundCallables"]


class RoundCallables(ProgramChecker):
    """MPC001 — non-importable callables passed to a round API."""

    code = "MPC001"
    description = (
        "Callables passed to MPCContext.map_round or SweepRoundExecutor."
        "run_round must be module-level functions: the distributed "
        "protocol ships them by import path, which cannot name lambdas, "
        "closures, or bound methods."
    )

    _REASONS = {
        "lambda": "a lambda",
        "nested": "a nested function (closure)",
        "constructed": "a dynamically constructed callable",
        "boundmethod": "a bound method",
    }

    def check(self, ctx: ProgramContext) -> Iterator[Finding]:
        graph = ctx.graph
        for fid, relpath, fn in graph.functions():
            for fact in fn.rounds:
                reason = self._REASONS.get(fact.arg_kind)
                if reason is None and fact.arg_kind == "name" and fact.name:
                    qualname = (graph.resolve(fact.name, fid) or "").partition(":")[2]
                    if "." in qualname:
                        reason = f"the method {qualname!r}"
                if reason is None:
                    continue
                yield Finding(
                    self.code,
                    f"{reason} passed to {fact.api}(); the distributed "
                    "import-path dispatch (protocol.callable_path) cannot "
                    "ship it — move it to a module-level function",
                    relpath,
                    fact.line,
                    fact.col,
                )
