"""Name resolution and call-edge construction over module summaries.

The summarizer records call sites as *spellings* (an import-resolved
dotted path, a ``self`` method, a typed local).  This module turns those
spellings into **function ids** (``module:qualname``) by walking the
export tables of every summarized module — through aliased imports,
re-exporting ``__init__`` packages, and ``from x import *`` — and then
materializes the call graph as explicit edges.

Resolution is deliberately conservative: a spelling that cannot be
anchored inside the analyzed tree (stdlib, third-party, dynamic), or a
method call on a receiver whose type is unknown, resolves to nothing and
contributes no edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .summary import MODULE_FUNCTION, CallSite, ModuleSummary

__all__ = ["Edge", "Resolver", "build_edges", "function_id"]


def function_id(module: str, qualname: str) -> str:
    return f"{module}:{qualname}"


@dataclass(frozen=True)
class Edge:
    """One resolved call-graph edge."""

    caller: str
    callee: str
    under_lock: bool = False
    via_thread: bool = False


class Resolver:
    """Resolves dotted spellings to function ids across the program."""

    def __init__(self, summaries: dict[str, ModuleSummary]) -> None:
        self.summaries = summaries

    # -- module namespaces ---------------------------------------------- #
    def binding(
        self, module: str, name: str, _visited: frozenset[tuple[str, str]] = frozenset()
    ) -> str | None:
        """The dotted target ``name`` is bound to inside ``module``.

        Follows re-export chains and ``import *`` (respecting the starred
        module's ``__all__``) with a visited-set cycle guard.
        """
        if (module, name) in _visited:
            return None
        visited = _visited | {(module, name)}
        summary = self.summaries.get(module)
        if summary is None:
            return None
        target = summary.exports.get(name)
        if target is not None:
            return self._chase(module, name, target, visited)
        for starred in summary.star_from:
            star_summary = self.summaries.get(starred)
            if star_summary is None:
                continue
            if star_summary.all_names is not None:
                if name not in star_summary.all_names:
                    continue
            elif name.startswith("_"):
                continue
            found = self.binding(starred, name, visited)
            if found is not None:
                return found
        return None

    def _chase(
        self,
        module: str,
        name: str,
        target: str,
        visited: frozenset[tuple[str, str]],
    ) -> str | None:
        """Follow one export entry to its final dotted form."""
        if target == f"{module}.{name}":
            return target  # defined in the module itself
        # `from other import sym` → target == "other.sym"; other may itself
        # re-export.  Split at the longest summarized-module prefix.
        owner, symbol = self._split_module(target)
        if owner is not None and symbol and "." not in symbol:
            chained = self.binding(owner, symbol, visited)
            if chained is not None:
                return chained
        return target

    def _split_module(self, dotted: str) -> tuple[str | None, str]:
        """Longest summarized-module prefix of ``dotted`` + the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.summaries:
                return candidate, ".".join(parts[cut:])
        return None, dotted

    # -- global resolution ---------------------------------------------- #
    def _locate(self, dotted: str, context_module: str | None) -> tuple[str | None, str]:
        """``(owning module, remainder)`` of a dotted spelling.

        ``context_module`` supplies the namespace for bare heads (a
        same-module helper, or a name the summarizer left unrewritten).
        """
        head, _, rest = dotted.partition(".")
        bound = self.binding(context_module, head) if context_module is not None else None
        if bound is not None:
            dotted = f"{bound}.{rest}" if rest else bound
        return self._split_module(dotted)

    def resolve_dotted(
        self, dotted: str, context_module: str | None = None
    ) -> tuple[str, str] | None:
        """Resolve a dotted spelling to ``(module, qualname)``."""
        owner, symbol = self._locate(dotted, context_module)
        return self._resolve_in(owner, symbol) if owner is not None else None

    def _resolve_in(
        self, module: str, symbol: str, _depth: int = 0
    ) -> tuple[str, str] | None:
        summary = self.summaries[module]
        if _depth > 16:
            return None
        if not symbol:
            return module, MODULE_FUNCTION
        first, _, rest = symbol.partition(".")
        if not rest:
            if first in summary.functions:
                return module, first
            if first in summary.classes:
                ctor = f"{first}.__init__"
                if ctor in summary.functions:
                    return module, ctor
                return module, f"{first}"
            bound = self.binding(module, first)
            if bound is not None and bound != f"{module}.{first}":
                owner, sym = self._split_module(bound)
                if owner is not None:
                    return self._resolve_in(owner, sym, _depth + 1)
            return None
        if first in summary.classes:
            found = self.method_id(module, first, rest)
            if found is not None:
                return found
            return None
        bound = self.binding(module, first)
        if bound is not None and bound != f"{module}.{first}":
            owner, sym = self._split_module(f"{bound}.{rest}")
            if owner is not None:
                return self._resolve_in(owner, sym, _depth + 1)
        return None

    def resolve_class(
        self, dotted: str, context_module: str | None = None
    ) -> tuple[str, str] | None:
        """Resolve a dotted spelling to a class ``(module, name)``."""
        owner, symbol = self._locate(dotted, context_module)
        if owner is None or symbol not in self.summaries[owner].classes:
            return None
        return owner, symbol

    def method_id(
        self, module: str, cls: str, method: str, _depth: int = 0
    ) -> tuple[str, str] | None:
        """Find ``method`` on ``cls`` or (depth-first) its bases."""
        if _depth > 8:
            return None
        summary = self.summaries.get(module)
        if summary is None:
            return None
        cls_summary = summary.classes.get(cls)
        if cls_summary is None:
            return None
        if method in cls_summary.methods:
            return module, f"{cls}.{method}"
        for base in cls_summary.bases:
            resolved = self.resolve_class(base, context_module=module)
            if resolved is not None:
                found = self.method_id(resolved[0], resolved[1], method, _depth + 1)
                if found is not None:
                    return found
        return None

    # -- call-site resolution ------------------------------------------- #
    def resolve_site(
        self, caller_module: str, caller_qualname: str, site: CallSite
    ) -> tuple[str, str] | None:
        """Resolve one call site to ``(module, qualname)``."""
        summary = self.summaries[caller_module]
        caller = summary.functions.get(caller_qualname)
        if site.kind == "plain":
            return self.resolve_dotted(site.target, context_module=caller_module)
        if caller is None:
            return None
        if site.kind == "self":
            return self.method_id(caller_module, caller.cls, site.target) if caller.cls else None
        owner, _, method = site.target.partition(".")
        if site.kind == "var":
            owner_type = caller.var_types.get(owner)
        else:  # "selfattr"
            cls_summary = summary.classes.get(caller.cls)
            owner_type = cls_summary.attr_types.get(owner) if cls_summary else None
        if owner_type is None:
            return None
        resolved = self.resolve_class(owner_type, context_module=caller_module)
        return self.method_id(*resolved, method) if resolved is not None else None


def build_edges(
    summaries: dict[str, ModuleSummary], resolver: Resolver
) -> list[Edge]:
    """Materialize every resolvable call edge, plus import-time edges."""
    edges: list[Edge] = []
    for module, summary in summaries.items():
        # Importing a module executes its body: edge to its pseudo-function.
        importer = function_id(module, MODULE_FUNCTION)
        seen_imports: set[str] = set()
        for imported in summary.imported_modules:
            owner, symbol = resolver._split_module(imported)
            if owner is None or symbol or owner in seen_imports:
                continue
            seen_imports.add(owner)
            edges.append(Edge(importer, function_id(owner, MODULE_FUNCTION)))
        for qualname, fn in summary.functions.items():
            caller = function_id(module, qualname)
            for site in fn.calls:
                resolved = resolver.resolve_site(module, qualname, site)
                if resolved is None:
                    continue
                callee_module, callee_qualname = resolved
                callee_summary = summaries[callee_module]
                if callee_qualname not in callee_summary.functions:
                    # Class reference without __init__ — fall through to
                    # the module pseudo-function so reachability still flows.
                    if callee_qualname in callee_summary.classes:
                        callee_qualname = MODULE_FUNCTION
                    else:
                        continue
                edges.append(
                    Edge(
                        caller,
                        function_id(callee_module, callee_qualname),
                        under_lock=site.under_lock,
                        via_thread=site.via_thread,
                    )
                )
    return edges
