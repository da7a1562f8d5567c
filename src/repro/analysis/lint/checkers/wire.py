"""WIRE001: the wire-canonicality rule.

Wire payloads, cache signatures, saved traces and CLI JSON are
byte-compared across backends and surfaces, so every encoding that
reaches them must be canonical: ``json.dumps``/``json.dump`` with
``sort_keys=True``, default or canonical separators and no lossy
``default=`` hook, and never a ``str(obj)``/``repr(obj)`` rendering.
WIRE001 reports

* every non-canonical encoding in a module that is ``canonical`` itself
  (zero hops), and
* every write to a wire/trace sink, in a function that is canonical
  locally or by inheritance, whose payload comes from a non-canonical
  encoding, including one a helper returns any number of calls away.

The pattern tables are the module-level functions below; the summariser
(:mod:`repro.analysis.graph.summary`) records what they yield.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from ..findings import Finding
from ..registry import ProgramChecker, ProgramContext
from ._imports import ImportMap, resolve_call_target

if TYPE_CHECKING:  # pragma: no cover - the summariser imports this module
    from ...graph.program import ProgramGraph

#: Attribute calls that put bytes on a wire or into a saved trace.
WRITE_SINKS = frozenset({"write", "sendall", "send", "sendto"})

#: Serialization verdicts that taint a sink.
_TAINTED = ("noncanonical", "stringified")

#: Verdict order for the returned-serialization fixpoint (worst wins).
_RANK = {"": 0, "canonical": 1, "stringified": 2, "noncanonical": 3}


# --------------------------------------------------------------------------- #
# Fact iterators (run by the summariser)
# --------------------------------------------------------------------------- #
def _const_true(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _canonical_separators(node: ast.expr) -> bool:
    return (
        isinstance(node, (ast.Tuple, ast.List))
        and len(node.elts) == 2
        and all(isinstance(e, ast.Constant) for e in node.elts)
        and [e.value for e in node.elts] in ([",", ":"], [", ", ": "])
    )


def _json_defects(node: ast.Call, imports: ImportMap) -> list[str] | None:
    """Why a ``json.dumps``/``json.dump`` call is not canonical (``None``
    when it is neither); a ``**kwargs`` call may pass ``sort_keys``."""
    target = resolve_call_target(node, imports)
    if target not in ("json.dumps", "json.dump"):
        return None
    keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
    has_kwargs = any(kw.arg is None for kw in node.keywords)
    defects: list[str] = []
    if not _const_true(keywords.get("sort_keys")) and not has_kwargs:
        defects.append(
            f"{target} on a canonical path without sort_keys=True — "
            "output bytes depend on dict construction order"
        )
    if "default" in keywords:
        defects.append(
            f"{target} with a default= encoder on a canonical path — "
            "lossy coercion (e.g. default=str) hides type drift; "
            "normalise values explicitly before encoding"
        )
    separators = keywords.get("separators")
    if separators is not None and not _canonical_separators(separators):
        defects.append(
            f"{target} with non-canonical separators — use (',', ':') "
            "compact or the default"
        )
    return defects


def json_dump_canonicality(node: ast.Call, imports: ImportMap) -> str | None:
    """Classify a call: ``None`` if not json.dumps/json.dump, else verdict.

    Returns ``"canonical"`` when the call sorts keys with default or
    canonical separators and no lossy ``default=`` hook, ``"noncanonical"``
    otherwise, ``"unknown"`` when ``**kwargs`` makes the call unjudgeable.
    """
    defects = _json_defects(node, imports)
    if defects is None:
        return None
    if any(kw.arg is None for kw in node.keywords):
        return "unknown"
    return "noncanonical" if defects else "canonical"


def iter_noncanonical_json(
    nodes: Iterable[ast.AST], imports: ImportMap
) -> Iterator[tuple[ast.AST, str]]:
    """Every defect of every ``json.dumps``/``json.dump`` call."""
    for node in nodes:
        if isinstance(node, ast.Call):
            for message in _json_defects(node, imports) or ():
                yield node, message


def _stringified_receiver(node: ast.expr) -> str | None:
    """``'str'``/``'repr'`` when ``node`` is ``str(X)``/``repr(X)`` of a non-literal."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("str", "repr")
        and node.args
        and not isinstance(node.args[0], ast.Constant)
    ):
        return node.func.id
    return None


def iter_stringified_writes(nodes: Iterable[ast.AST]) -> Iterator[tuple[ast.AST, str]]:
    """``.write()``/``.sendall()`` of ``str(obj)``/``repr(obj)`` bytes.

    ``handle.write(str(payload).encode())`` renders Python ``repr`` —
    insertion-ordered dicts, hash-ordered sets — onto a wire or trace
    surface.  Only direct stringification is flagged here; values that
    arrive through helper calls are caught by the sink taint.
    """
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in WRITE_SINKS):
            continue
        if not node.args:
            continue
        payload = node.args[0]
        # Unwrap ``X.encode(...)`` — the common bytes-conversion step.
        if (
            isinstance(payload, ast.Call)
            and isinstance(payload.func, ast.Attribute)
            and payload.func.attr == "encode"
        ):
            payload = payload.func.value
        kind = _stringified_receiver(payload)
        if kind is not None:
            yield (
                node,
                f"{kind}()-rendered object written to a wire/trace surface — "
                "repr order is not canonical; encode with json.dumps("
                "sort_keys=True) instead",
            )


class WireCanonicality(ProgramChecker):
    """WIRE001 — non-canonical encodings reaching canonical surfaces."""

    code = "WIRE001"
    description = (
        "non-canonical json.dumps/json.dump or stringified write in canonical "
        "code, or a non-canonical payload written to a wire/trace sink through "
        "helper calls"
    )

    def check(self, ctx: ProgramContext) -> Iterator[Finding]:
        for relpath, summary in ctx.files.items():
            if "canonical" in summary.scopes:
                for fact in summary.facts:
                    yield Finding(self.code, fact.message, relpath, fact.line, fact.col)
        graph = ctx.graph
        serial = self._serialization_classes(graph)
        for fid, relpath, fn in graph.functions():
            if "canonical" not in graph.effective_scopes(fid):
                continue
            local = "canonical" in graph.local_scopes(fid)
            chain = graph.describe_chain("canonical", fid)
            via = f" [canonical surface reached via {chain}]" if chain else ""
            for sink in fn.sinks:
                if sink.direct in _TAINTED:
                    # In a canonical module the encoding itself is reported
                    # above; only the inherited case is reported at the sink.
                    if local:
                        continue
                    yield Finding(
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
                    callee_fid = graph.resolve(callee, fid)
                    verdict = serial.get(callee_fid, "") if callee_fid else ""
                    if verdict in _TAINTED:
                        yield Finding(
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
        return is canonical.  The loop runs until nothing changes: it
        ends because a verdict only ever rises, through four ranks.
        """
        serial: dict[str, str] = {}
        callees: dict[str, list[str | None]] = {}
        for fid, _, fn in graph.functions():
            serial[fid] = fn.serial_direct
            callees[fid] = [graph.resolve(target, fid) for target in fn.serial_callees]
        changed = True
        while changed:
            changed = False
            for fid, deps in callees.items():
                verdicts = [serial[fid]] + [serial.get(dep, "") if dep else "" for dep in deps]
                worst = max(verdicts, key=_RANK.__getitem__)
                if worst != serial[fid]:
                    serial[fid] = worst
                    changed = True
        return serial


__all__ = [
    "WRITE_SINKS",
    "WireCanonicality",
    "iter_noncanonical_json",
    "iter_stringified_writes",
    "json_dump_canonicality",
]
