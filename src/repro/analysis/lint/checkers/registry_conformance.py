"""REG001 — conformance of ``@register_algorithm`` declarations.

The registry derives an algorithm's accepted parameters from its
solver's *signature* (keyword-only params after the single positional
trial RNG), and every dispatch surface trusts the spec to carry a
workload ``kind`` and a theorem ``bounds`` hook.  A registration that
violates any of those assumptions fails at runtime on whichever surface
touches it first — this checker fails it at review time instead.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..registry import LocalFactChecker, register_program_checker

_KINDS = ("graph", "setcover")


def _decorator_call(node: ast.expr) -> ast.Call | None:
    """The ``register_algorithm(...)`` call when ``node`` is one."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return node if name == "register_algorithm" else None


def iter_registration_defects(
    nodes: Iterable[ast.AST],
) -> Iterator[tuple[ast.AST, str]]:
    """Every defect of every ``@register_algorithm`` registration."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            call = _decorator_call(decorator)
            if call is not None:
                yield from _registration_defects(call, node)


def _registration_defects(
    call: ast.Call, fn: ast.FunctionDef | ast.AsyncFunctionDef
) -> Iterator[tuple[ast.AST, str]]:
    keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}

    if not call.args or not (
        isinstance(call.args[0], ast.Constant) and isinstance(call.args[0].value, str)
    ):
        yield (
            call,
            f"registration of '{fn.name}' must pass the algorithm name as a "
            "string literal (it is the cache-key identity)",
        )

    kind = keywords.get("kind")
    if kind is None:
        yield (
            call,
            f"registration of '{fn.name}' has no kind= — every spec must "
            f"declare its workload kind ({' or '.join(_KINDS)})",
        )
    elif not (isinstance(kind, ast.Constant) and kind.value in _KINDS):
        yield (
            kind,
            f"registration of '{fn.name}' has a non-literal or unknown kind= — "
            f"use one of {_KINDS}",
        )

    bounds = keywords.get("bounds")
    if bounds is None or (isinstance(bounds, ast.Constant) and bounds.value is None):
        yield (
            call,
            f"registration of '{fn.name}' has no bounds= hook — every row "
            "needs its theorem bound for the guarantee check",
        )

    args = fn.args
    positional = len(args.posonlyargs) + len(args.args)
    if positional != 1 or args.vararg is not None:
        yield (
            fn,
            f"solver '{fn.name}' must take exactly one positional parameter "
            "(the trial RNG) with every tunable keyword-only, so the spec "
            "derives params from the signature",
        )
    if args.kwarg is not None:
        yield (
            fn,
            f"solver '{fn.name}' takes **{args.kwarg.arg} — a catch-all hides "
            "the accepted parameters from the spec derivation",
        )


@register_program_checker
class RegistryConformance(LocalFactChecker):
    """REG001 — every registration must be fully specified and derivable."""

    code = "REG001"
    name = "registry-conformance"
    description = "@register_algorithm spec missing kind/bounds or non-derivable params"
    scopes = None  # registrations may appear anywhere
    kind = "registration"


__all__ = ["RegistryConformance", "iter_registration_defects"]
