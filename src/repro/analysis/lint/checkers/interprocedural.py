"""Interprocedural checkers over the whole-program graph.

These run against the same
:class:`~repro.analysis.lint.registry.ProgramContext` as every other rule.
Where DET001–DET004 and CONC001 judge a module by where it *sits* (its
path-tail scope), these judge a function by what *reaches* it along the
import/call graph:

WIRE001   values flowing into wire/trace write sinks must pass through a
          canonical serializer even when the encoding happens in a
          helper two calls away.
DET101    unseeded-RNG / wall-clock / set-order hazards in functions
          that are not in a deterministic/clockfree module themselves
          but are transitively reachable from one.
CONC101   mutations of lock-guarded shared attributes reachable from a
          thread/executor entry point along a call path that crosses a
          module boundary without any path-dominating lock acquisition.
MPC001    closures, lambdas, and bound methods handed to
          ``MPCContext.map_round`` / ``SweepRoundExecutor.run_round`` —
          the distributed protocol ships callables by import path
          (:func:`repro.distributed.protocol.callable_path`), which
          cannot name ``<locals>`` or ``<lambda>`` objects.

Every finding carries an example entry→sink call chain so the fix site
is obvious without re-deriving the reachability by hand.
"""

from __future__ import annotations

from typing import Iterator

from ...graph.callgraph import function_id
from ...graph.program import ProgramGraph
from ...graph.summary import MODULE_FUNCTION, FunctionSummary, ModuleSummary
from ..findings import Finding
from ..registry import ProgramChecker, ProgramContext, register_program_checker

__all__ = ["Wire001", "Det101", "Conc101", "Mpc001"]

#: Serialization verdicts that taint a sink (worst wins in propagation).
_TAINTED = ("noncanonical", "stringified")


def _fn_items(graph: ProgramGraph) -> Iterator[tuple[str, str, FunctionSummary]]:
    """Deterministic (fid, relpath, summary) iteration over all functions."""
    for module in sorted(graph.summaries):
        summary = graph.summaries[module]
        for qualname in sorted(summary.functions):
            yield function_id(module, qualname), summary.relpath, summary.functions[qualname]


@register_program_checker
class Wire001(ProgramChecker):
    """Taint tracking from serializers to wire/trace write sinks."""

    code = "WIRE001"
    name = "interprocedural-canonical-wire"
    description = (
        "Payloads written to HTTP responses, protocol records, or saved "
        "traces must come from a canonical serializer (json.dumps with "
        "sort_keys= and separators=, or backends._jsonable), even when "
        "the serialization happens in a helper several calls away."
    )

    def check(self, ctx: ProgramContext) -> Iterator[Finding]:
        graph = ctx.graph
        serial = self._serialization_classes(graph)
        for fid, relpath, fn in _fn_items(graph):
            scopes = graph.effective_scopes(fid)
            if "canonical" not in scopes:
                continue
            local = graph.local_scopes(fid)
            chain = graph.describe_chain("canonical", fid)
            via = f" [canonical surface reached via {chain}]" if chain else ""
            for sink in fn.sinks:
                if sink.direct in _TAINTED:
                    # Direct non-canonical encode at the sink.  In a
                    # locally-canonical module DET002 already flags the
                    # serializer call itself; only the inherited case is new.
                    if "canonical" in local:
                        continue
                    yield ctx.finding(
                        self.code,
                        f"write to a wire/trace sink of a {sink.direct} payload; "
                        "serialize with json.dumps(..., sort_keys=True, "
                        f'separators=(",", ":")) or backends._jsonable{via}',
                        relpath,
                        sink.line,
                        sink.col,
                    )
                    continue
                for callee in sink.callees:
                    resolved = graph.resolver.resolve_dotted(
                        callee, context_module=graph.module_of(fid)
                    )
                    if resolved is None:
                        continue
                    callee_fid = function_id(*resolved)
                    verdict = serial.get(callee_fid, "")
                    if verdict in _TAINTED:
                        yield ctx.finding(
                            self.code,
                            f"payload written to a wire/trace sink comes from "
                            f"{callee_fid}(), which returns a {verdict} "
                            "serialization; make the helper canonical "
                            '(sort_keys=True, separators=(",", ":"))'
                            f"{via}",
                            relpath,
                            sink.line,
                            sink.col,
                        )
                        break

    @staticmethod
    def _serialization_classes(graph: ProgramGraph) -> dict[str, str]:
        """Fixpoint of each function's returned-serialization class.

        A function is ``noncanonical`` if it directly returns a
        non-canonical encoding or (transitively) returns the result of a
        function that does; ``canonical`` only if every contributing
        return is canonical.
        """
        rank = {"": 0, "canonical": 1, "stringified": 2, "noncanonical": 3}
        serial: dict[str, str] = {}
        callees: dict[str, list[str]] = {}
        for fid, _, fn in _fn_items(graph):
            serial[fid] = fn.serial_direct
            resolved_callees: list[str] = []
            for target in fn.serial_callees:
                resolved = graph.resolver.resolve_dotted(
                    target, context_module=graph.module_of(fid)
                )
                if resolved is not None:
                    resolved_callees.append(function_id(*resolved))
            callees[fid] = resolved_callees
        for _ in range(20):
            changed = False
            for fid, deps in callees.items():
                worst = serial[fid]
                for dep in deps:
                    dep_class = serial.get(dep, "")
                    if rank[dep_class] > rank[worst]:
                        worst = dep_class
                if worst != serial[fid]:
                    serial[fid] = worst
                    changed = True
            if not changed:
                break
        return serial


@register_program_checker
class Det101(ProgramChecker):
    """Determinism hazards in transitively-reached helper code."""

    code = "DET101"
    name = "interprocedural-determinism"
    description = (
        "Unseeded RNG, wall-clock reads, and order-sensitive set "
        "iteration in any function transitively reachable from solver, "
        "kernel, or MPC-round entry points — even when the function's "
        "own module is outside the deterministic path scopes."
    )

    #: Which inherited scope convicts which fact kind (mirrors DET001/3/4).
    _SCOPE_FOR_KIND = {
        "rng": "deterministic",
        "set-order": "deterministic",
        "clock": "clockfree",
    }

    def check(self, ctx: ProgramContext) -> Iterator[Finding]:
        graph = ctx.graph
        for fid, relpath, fn in _fn_items(graph):
            if not fn.det_facts:
                continue
            local = graph.local_scopes(fid)
            inherited = graph.inherited.get(fid, set())
            for fact in fn.det_facts:
                scope = self._SCOPE_FOR_KIND.get(fact.kind)
                if scope is None or scope in local or scope not in inherited:
                    # Local scope ⇒ DET001/DET003/DET004 already report it.
                    continue
                chain = graph.describe_chain(scope, fid)
                yield ctx.finding(
                    self.code,
                    f"{fact.message} [reachable from {scope} code: {chain}]",
                    relpath,
                    fact.line,
                    fact.col,
                )


@register_program_checker
class Conc101(ProgramChecker):
    """Cross-module lock discipline along thread-reachable call paths."""

    code = "CONC101"
    name = "interprocedural-lock-discipline"
    description = (
        "Mutations of lock-guarded shared state (instance attributes of "
        "lock-bearing classes, lock-bearing modules' mutable globals) "
        "reachable from a thread/executor entry point along a cross-"
        "module call path with no path-dominating lock acquisition."
    )

    def check(self, ctx: ProgramContext) -> Iterator[Finding]:
        graph = ctx.graph
        reachable = self._unlocked_cross_module(graph)
        for fid, relpath, fn in _fn_items(graph):
            if fid not in reachable:
                continue
            module, _, qualname = fid.partition(":")
            summary = graph.summaries[module]
            entry, entry_line = reachable[fid]
            chain = f" [unlocked thread path: {entry} -> {fid}]" if entry != fid else ""
            if fn.cls and not qualname.endswith(".__init__"):
                cls = summary.classes.get(fn.cls)
                if cls is not None and cls.lock_attrs:
                    lock = cls.lock_attrs[0]
                    for mutation in fn.mutations:
                        if mutation.under_lock:
                            continue
                        yield ctx.finding(
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
                    if mutation.under_lock:
                        continue
                    # Global mutations are recorded module-wide; attribute
                    # each to its containing function by line range.
                    if not self._within(fn, summary, mutation.line):
                        continue
                    yield ctx.finding(
                        self.code,
                        f"module global '{mutation.name}' mutated without "
                        f"holding module lock "
                        f"'{summary.module_locks[0]}' on a cross-module "
                        f"thread-reachable path{chain}",
                        relpath,
                        mutation.line,
                        mutation.col,
                    )

    @staticmethod
    def _within(fn: FunctionSummary, summary: ModuleSummary, line: int) -> bool:
        """``line`` falls inside ``fn`` (next function starts after it)."""
        starts = sorted(
            f.line for f in summary.functions.values() if f.qualname != MODULE_FUNCTION
        )
        following = [s for s in starts if s > fn.line]
        upper = following[0] if following else float("inf")
        return fn.line <= line < upper

    @staticmethod
    def _unlocked_cross_module(graph: ProgramGraph) -> dict[str, tuple[str, int]]:
        """Functions reachable from a threaded entry with no lock held on
        the way, along a path that crossed a module boundary.

        Returns ``fid → (entry fid, entry line)`` for chain reporting.
        Intra-module unlocked paths are CONC001's jurisdiction and are
        not reported here.
        """
        # State: (fid, crossed-module?) pairs; BFS over unlocked edges.
        from collections import deque

        queue: deque[tuple[str, bool, str]] = deque()
        seen: set[tuple[str, bool]] = set()
        result: dict[str, tuple[str, int]] = {}

        for module, summary in sorted(graph.summaries.items()):
            if "threaded" in summary.scopes:
                for qualname in sorted(summary.functions):
                    fid = function_id(module, qualname)
                    queue.append((fid, False, fid))
                    seen.add((fid, False))
        for edge in graph.edges:
            if edge.via_thread and not edge.weak and not edge.under_lock:
                crossed = graph.module_of(edge.caller) != graph.module_of(edge.callee)
                state = (edge.callee, crossed)
                if state not in seen:
                    seen.add(state)
                    queue.append((edge.callee, crossed, edge.caller))
                    if crossed:
                        result.setdefault(edge.callee, (edge.caller, edge.line))

        while queue:
            fid, crossed, entry = queue.popleft()
            for edge in graph.out_edges.get(fid, ()):
                if edge.weak or edge.under_lock:
                    continue
                next_crossed = crossed or (
                    graph.module_of(edge.caller) != graph.module_of(edge.callee)
                )
                state = (edge.callee, next_crossed)
                if state in seen:
                    continue
                seen.add(state)
                if next_crossed:
                    result.setdefault(edge.callee, (entry, edge.line))
                queue.append((edge.callee, next_crossed, entry))
        return result


@register_program_checker
class Mpc001(ProgramChecker):
    """Non-importable callables on the MPC round-dispatch surface."""

    code = "MPC001"
    name = "round-callable-importability"
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
        for fid, relpath, fn in _fn_items(graph):
            for fact in fn.rounds:
                reason = self._REASONS.get(fact.arg_kind)
                if reason is None and fact.arg_kind == "name" and fact.name:
                    resolved = graph.resolver.resolve_dotted(
                        fact.name, context_module=graph.module_of(fid)
                    )
                    if resolved is not None and "." in resolved[1]:
                        reason = f"the method {resolved[1]!r}"
                if reason is None:
                    continue
                yield ctx.finding(
                    self.code,
                    f"{reason} passed to {fact.api}(); the distributed "
                    "import-path dispatch (protocol.callable_path) cannot "
                    "ship it — move it to a module-level function",
                    relpath,
                    fact.line,
                    fact.col,
                )
