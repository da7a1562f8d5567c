"""Import-binding resolution shared by the determinism checkers.

The checkers reason about *qualified call targets* (``random.shuffle``,
``numpy.random.rand``, ``json.dumps``, ``time.time``) but source code
reaches them through arbitrary bindings — ``import numpy as np``,
``from random import shuffle as mix``.  :class:`ImportMap` records what
every top-level name is bound to so a checker can resolve a call's
dotted path back to canonical module-qualified form.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["ImportMap", "build_import_map", "dotted_name", "resolve_call_target"]


@dataclass
class ImportMap:
    """local name → canonical dotted path it is bound to."""

    bindings: dict[str, str] = field(default_factory=dict)

    def resolve(self, dotted: str) -> str:
        """Rewrite the leading segment of ``dotted`` through the bindings.

        ``np.random.rand`` → ``numpy.random.rand`` under ``import numpy
        as np``; names with no recorded binding come back unchanged.
        """
        head, sep, rest = dotted.partition(".")
        target = self.bindings.get(head)
        if target is None:
            return dotted
        return target + sep + rest if rest else target


def build_import_map(nodes: Iterable[ast.AST]) -> ImportMap:
    """Collect every module-level and function-level import binding
    among a module's ``nodes``."""
    imports = ImportMap()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                imports.bindings[name] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name
                imports.bindings[name] = f"{node.module}.{alias.name}"
    return imports


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call_target(call: ast.Call, imports: ImportMap) -> str | None:
    """The canonical dotted target of a call, or None if not a plain chain."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    return imports.resolve(dotted)
