"""Per-module summaries: the facts every lint rule is computed from.

One structured pass over a module's AST produces a :class:`ModuleSummary`
holding everything the program graph and the rules need — import
bindings, the export table, per-function call sites with held-lock
context, determinism facts, serialization flow, wire-sink writes,
round-callable arguments, attribute mutations and non-canonical
encodings.  This is the only AST pass of a lint run: each rule reads the
facts of a module that carries its scope itself (zero call hops) and
follows the same facts along call edges.

Conventions:

* **Function ids** are ``"<module>:<qualname>"`` — ``repro.service.
  server:SolverService.drain``, ``repro.backends.sweep:run_sweep``, and
  the pseudo-function ``pkg.mod:<module>`` for module-body statements
  (import-time execution is reachable from every importer).
* **Nested functions and lambdas are flattened** into their enclosing
  top-level function or method: their calls and facts are attributed to
  the frame that creates them.  This over-approximates (a closure might
  never run) in exactly the direction a determinism/lock checker wants.
* Call sites record the *import-resolved* spelling (``np.random.rand`` →
  ``numpy.random.rand``); resolution to function ids happens later, at
  program-build time, when every module's exports are known.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from ..lint.checkers._imports import (
    ImportMap,
    build_import_map,
    dotted_name,
    resolve_call_target,
)
from ..lint.checkers.determinism import iter_global_rng, iter_set_order, iter_wall_clock
from ..lint.checkers.wire import (
    WRITE_SINKS,
    iter_noncanonical_json,
    iter_stringified_writes,
    json_dump_canonicality,
)
from ..lint.scopes import classify, scope_override
from .modules import module_name, resolve_relative_import

__all__ = [
    "CallSite",
    "ClassSummary",
    "Fact",
    "FunctionSummary",
    "GlobalMutation",
    "LocalClass",
    "ModuleSummary",
    "Mutation",
    "RoundFact",
    "SinkWrite",
    "summarize_module",
]

MODULE_FUNCTION = "<module>"

#: Lock factory call targets (shared convention with CONC001).
_LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "asyncio.Lock",
        "asyncio.Condition",
    }
)

#: Method calls that mutate the receiver in place.
_MUTATORS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popitem", "popleft", "remove",
        "reverse", "rotate", "setdefault", "sort", "update",
    }
)

_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "collections.deque", "collections.defaultdict",
     "collections.OrderedDict", "collections.Counter"}
)

#: APIs whose callable argument ships by import path (MPC001 surface).
_ROUND_APIS = frozenset({"map_round", "run_round"})


# --------------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------------- #
@dataclass
class CallSite:
    """One outgoing call (or callable registration) from a function.

    ``kind`` selects how ``target`` is later resolved:

    ========== ==========================================================
    ``plain``   import-resolved dotted path (``repro.backends.run_sweep``,
                ``helper`` for a same-module name)
    ``self``    method name on ``self`` (resolved in the enclosing class)
    ``var``     ``<local var>.<method>`` — typed via the caller's
                ``var_types``
    ``selfattr`` ``<self attr>.<method>`` — typed via the class's
                ``attr_types``
    ========== ==========================================================

    ``under_lock`` is set when any recognised lock is held (a lock
    attribute of the enclosing class or a module-level lock): a lock held
    at a call dominates every path through it.  ``class_locked`` is set
    only when one of the class's own lock attributes is.
    """

    target: str
    kind: str
    under_lock: bool = False
    via_thread: bool = False
    class_locked: bool = False


@dataclass
class Fact:
    """One pattern occurrence a rule judges, with the message it reports."""

    kind: str  # "rng" | "clock" | "set-order" | "encoding"
    message: str
    line: int
    col: int


@dataclass
class SinkWrite:
    """One wire/trace write whose payload needs canonical provenance."""

    line: int
    col: int
    direct: str = ""  # "noncanonical" | "stringified" | "" (decided by callees)
    callees: list[str] = field(default_factory=list)  # plain dotted call targets


@dataclass
class RoundFact:
    """A callable argument handed to ``map_round``/``run_round``."""

    api: str
    arg_kind: str  # "lambda" | "nested" | "boundmethod" | "constructed" | "name"
    name: str  # dotted target for "name"/"boundmethod", "" otherwise
    line: int
    col: int


@dataclass
class Mutation:
    """One ``self.<attr>`` mutation inside a method.

    ``class_locked``: one of the class's own lock attributes is held.
    """

    attr: str
    line: int
    col: int
    class_locked: bool


@dataclass
class GlobalMutation:
    """One mutation of a module-level mutable from a function body.

    ``module_locked``: a module-level lock is held.
    """

    name: str
    line: int
    col: int
    module_locked: bool


@dataclass
class FunctionSummary:
    """Everything recorded about one top-level function or method."""

    qualname: str
    line: int
    cls: str = ""  # enclosing class name, "" for module functions
    calls: list[CallSite] = field(default_factory=list)
    det_facts: list[Fact] = field(default_factory=list)
    serial_direct: str = ""  # "canonical" | "noncanonical" | "stringified" | ""
    serial_callees: list[str] = field(default_factory=list)
    sinks: list[SinkWrite] = field(default_factory=list)
    rounds: list[RoundFact] = field(default_factory=list)
    mutations: list[Mutation] = field(default_factory=list)
    var_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassSummary:
    """Class-level structure needed for lock discipline and typing."""

    name: str
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    lock_attrs: list[str] = field(default_factory=list)
    attr_types: dict[str, str] = field(default_factory=dict)
    definitions: int = 0  # module-level ``class`` statements binding the name


@dataclass
class LocalClass:
    """A class statement CONC001 judges on its own.

    Either a class defined inside a function or another class body — the
    call graph folds its methods into the enclosing frame like any
    closure — or one of several module-level definitions of a name (a
    redefinition, a try/except fallback), whose module record merges
    them all.  This record keeps that one statement's methods, against
    its own lock attributes.  ``functions`` is keyed
    ``"<Class>.<method>"`` like module methods.
    """

    cls: ClassSummary
    functions: dict[str, FunctionSummary] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """The complete analysis record of one source file."""

    relpath: str
    module: str
    scopes: list[str] = field(default_factory=list)
    imported_modules: list[str] = field(default_factory=list)
    exports: dict[str, str] = field(default_factory=dict)
    star_from: list[str] = field(default_factory=list)
    all_names: list[str] | None = None
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    local_classes: list[LocalClass] = field(default_factory=list)
    mutable_globals: list[str] = field(default_factory=list)
    module_locks: list[str] = field(default_factory=list)
    global_mutations: list[GlobalMutation] = field(default_factory=list)
    facts: list[Fact] = field(default_factory=list)  # encodings


# --------------------------------------------------------------------------- #
# Expression helpers
# --------------------------------------------------------------------------- #
def _self_attr(node: ast.AST) -> str | None:
    """``X`` when ``node`` is (a chain rooted at) ``self.X``."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = node.value
    return None


#: Serialization-classification priority (highest wins when combining).
_SERIAL_PRIORITY = ("noncanonical", "stringified", "canonical", "other", "none")


def _combine_serial(parts: list[tuple[str, set[str]]]) -> tuple[str, set[str]]:
    calls: set[str] = set()
    verdict = "none"
    for direct, part_calls in parts:
        calls |= part_calls
        if _SERIAL_PRIORITY.index(direct) < _SERIAL_PRIORITY.index(verdict):
            verdict = direct
    return verdict, calls


# --------------------------------------------------------------------------- #
# The structured extraction visitor
# --------------------------------------------------------------------------- #
@dataclass
class _LocalScan:
    """Extraction state of one enclosing nested class."""

    local: LocalClass
    method: FunctionSummary | None = None  # the method being visited
    locks: int = 0  # held `with self.<lock attr of this class>`


class _Extractor(ast.NodeVisitor):
    """One pass over a module collecting every per-function record."""

    def __init__(self, summary: ModuleSummary, imports: ImportMap) -> None:
        self.summary = summary
        self.imports = imports
        self.frame: FunctionSummary | None = None
        self.frame_class: ClassSummary | None = None
        self.cls: ClassSummary | None = None
        self.class_locks = 0  # held `with self.<lock attr of frame_class>`
        self.module_locks = 0  # held `with <module-level lock>`
        self.local_scans: list[_LocalScan] = []
        self.fn_depth = 0
        self.nested_names: set[str] = set()
        self.serial_env: dict[str, tuple[str, set[str]]] = {}
        self.frame_imports: dict[str, str] = {}
        self.module_fn = FunctionSummary(qualname=MODULE_FUNCTION, line=1)
        summary.functions[MODULE_FUNCTION] = self.module_fn

    # -- frame helpers -------------------------------------------------- #
    @property
    def current(self) -> FunctionSummary:
        return self.frame if self.frame is not None else self.module_fn

    @property
    def locked(self) -> bool:
        return self.class_locks > 0 or self.module_locks > 0

    def _resolve_name(self, name: str) -> str:
        """Resolve a bare name through function-local then module imports."""
        bound = self.frame_imports.get(name)
        if bound is not None:
            return bound
        return self.imports.resolve(name)

    def _resolve_dotted_spelling(self, dotted: str) -> str:
        """Rewrite a dotted spelling's head through function-local imports."""
        head, sep, rest = dotted.partition(".")
        bound = self.frame_imports.get(head)
        if bound is not None:
            return f"{bound}{sep}{rest}" if rest else bound
        return self.imports.resolve(dotted)

    # -- function-level imports ------------------------------------------ #
    # ``build_import_map`` covers module-level absolute imports; imports
    # inside a function body (the CLI's lazy-import idiom) bind names only
    # in that frame, and *executing* one runs the imported module's body —
    # recorded as a call edge to its pseudo-function.
    def visit_Import(self, node: ast.Import) -> None:
        if self.fn_depth:
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                self.frame_imports[bound] = (
                    alias.name if alias.asname else alias.name.partition(".")[0]
                )
                self.current.calls.append(
                    CallSite(alias.name, "plain", self.locked)
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.fn_depth:
            target = resolve_relative_import(
                self.summary.relpath, node.module, node.level
            )
            if target is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                self.frame_imports[alias.asname or alias.name] = f"{target}.{alias.name}"
            self.current.calls.append(
                CallSite(target, "plain", self.locked)
            )

    # -- structure ------------------------------------------------------ #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.fn_depth or self.cls is not None:
            # Nested classes fold into the enclosing frame like closures;
            # their own per-method lock view is kept on the side.
            self._visit_local_class(node)
            return
        cls = self.summary.classes[node.name]
        previous, self.cls = self.cls, cls
        if cls.definitions > 1:
            # The merged record's frames, plus this statement's own view.
            self._visit_local_class(node)
        else:
            for stmt in node.body:
                self.visit(stmt)
        self.cls = previous

    def _visit_local_class(self, node: ast.ClassDef) -> None:
        local = LocalClass(
            ClassSummary(
                name=node.name,
                methods=_method_names(node),
                lock_attrs=_lock_attrs(node, self.imports),
            )
        )
        self.summary.local_classes.append(local)
        self.local_scans.append(_LocalScan(local))
        for stmt in node.body:
            self.visit(stmt)
        self.local_scans.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        scan = self.local_scans[-1] if self.local_scans else None
        if scan is not None and scan.method is None:
            # A method of the innermost nested class.
            qualname = f"{scan.local.cls.name}.{node.name}"
            scan.method = scan.local.functions.setdefault(
                qualname,
                FunctionSummary(qualname=qualname, line=node.lineno, cls=scan.local.cls.name),
            )
            saved_locks, scan.locks = scan.locks, 0
            self._visit_frame(node)
            scan.method, scan.locks = None, saved_locks
        else:
            self._visit_frame(node)

    def _visit_frame(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if self.fn_depth:
            # Nested def: flatten into the enclosing frame.
            self.nested_names.add(node.name)
            self.fn_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self.fn_depth -= 1
            return
        qualname = f"{self.cls.name}.{node.name}" if self.cls is not None else node.name
        # A redefinition (property setter, conditional def) extends the frame.
        frame = self.summary.functions.setdefault(
            qualname,
            FunctionSummary(
                qualname=qualname,
                cls=self.cls.name if self.cls is not None else "",
                line=node.lineno,
            ),
        )
        frame.line = node.lineno
        self.frame = frame
        self.frame_class = self.cls
        self.nested_names = set()
        self.serial_env = {}
        self.frame_imports = {}
        saved_locks = self.class_locks, self.module_locks
        self.class_locks = self.module_locks = 0
        self.fn_depth = 1
        for stmt in node.body:
            self.visit(stmt)
        self.fn_depth = 0
        self.class_locks, self.module_locks = saved_locks
        self.frame = None
        self.frame_class = None

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function  # type: ignore[assignment]

    def visit_With(self, node: ast.With) -> None:
        exprs = [item.context_expr for item in node.items]
        attrs = {_self_attr(expr) for expr in exprs}
        class_held = self.frame_class is not None and bool(
            attrs & set(self.frame_class.lock_attrs)
        )
        module_held = any(
            isinstance(expr, ast.Name) and expr.id in self.summary.module_locks
            for expr in exprs
        )
        scans = [s for s in self.local_scans if attrs & set(s.local.cls.lock_attrs)]
        self.class_locks += class_held
        self.module_locks += module_held
        for scan in scans:
            scan.locks += 1
        self.generic_visit(node)
        self.class_locks -= class_held
        self.module_locks -= module_held
        for scan in scans:
            scan.locks -= 1

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    # -- lock-discipline records ----------------------------------------- #
    def _mutation(self, attr: str | None, line: int, col: int) -> None:
        """Record a ``self.<attr>`` mutation in every class view of it."""
        if attr is None:
            return
        if self.frame_class is not None:
            self.current.mutations.append(Mutation(attr, line, col, self.class_locks > 0))
        for scan in self.local_scans:
            if scan.method is not None:
                scan.method.mutations.append(Mutation(attr, line, col, scan.locks > 0))

    # -- serialization classification ----------------------------------- #
    def _classify(self, expr: ast.expr) -> tuple[str, set[str]]:
        if isinstance(expr, ast.Call):
            verdict = json_dump_canonicality(expr, self.imports)
            if verdict is not None:
                return ("other" if verdict == "unknown" else verdict), set()
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "encode":
                return self._classify(func.value)
            if isinstance(func, ast.Attribute) and func.attr == "join" and expr.args:
                return self._classify(expr.args[0])
            if (
                isinstance(func, ast.Name)
                and func.id in ("str", "repr")
                and expr.args
                and not isinstance(expr.args[0], ast.Constant)
            ):
                return "stringified", set()
            if isinstance(func, ast.Name) and func.id in ("bytes", "bytearray"):
                return (
                    self._classify(expr.args[0]) if expr.args else ("none", set())
                )
            dotted = dotted_name(func)
            if dotted is not None:
                return "none", {self._resolve_dotted_spelling(dotted)}
            return "other", set()
        if isinstance(expr, ast.Name):
            return self.serial_env.get(expr.id, ("other", set()))
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            return _combine_serial([self._classify(expr.left), self._classify(expr.right)])
        if isinstance(expr, ast.JoinedStr):
            parts = [
                self._classify(value.value)
                for value in expr.values
                if isinstance(value, ast.FormattedValue)
            ]
            return _combine_serial(parts) if parts else ("none", set())
        if isinstance(expr, ast.IfExp):
            return _combine_serial([self._classify(expr.body), self._classify(expr.orelse)])
        if isinstance(expr, ast.Constant):
            return "none", set()
        return "other", set()

    # -- statements ----------------------------------------------------- #
    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        # Local type inference: x = ClassName(...)
        if isinstance(value, ast.Call):
            spelled = dotted_name(value.func)
            dotted = self._resolve_dotted_spelling(spelled) if spelled else None
            if dotted is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name) and self.fn_depth:
                        self.current.var_types[target.id] = dotted
                    attr = _self_attr(target)
                    if (
                        attr is not None
                        and isinstance(target, ast.Attribute)
                        and self.frame_class is not None
                        and dotted not in _LOCK_FACTORIES
                    ):
                        self.frame_class.attr_types.setdefault(attr, dotted)
        # Serialization env for locals; lambda bindings count as nested defs.
        if self.fn_depth:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if isinstance(value, ast.Lambda):
                        self.nested_names.add(target.id)
                    else:
                        self.serial_env[target.id] = self._classify(value)
        # Instance-attribute mutations (methods only).
        for target in node.targets:
            self._mutation(_self_attr(target), node.lineno, node.col_offset + 1)
        self._record_global_mutation_targets(node.targets, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._mutation(_self_attr(node.target), node.lineno, node.col_offset + 1)
            self._record_global_mutation_targets([node.target], node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._mutation(_self_attr(node.target), node.lineno, node.col_offset + 1)
        # ``CACHE += [...]`` (under ``global``) extends the list in place.
        self._record_global_mutation_targets([node.target], node, augmented=True)
        self.generic_visit(node)

    def _record_global_mutation_targets(
        self, targets: list[ast.expr], node: ast.stmt, *, augmented: bool = False
    ) -> None:
        if not self.fn_depth:
            return
        for target in targets:
            base = target
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if (
                isinstance(base, ast.Name)
                and (augmented or base is not target)
                and base.id in self.summary.mutable_globals
            ):
                self._global_mutation(base.id, node.lineno, node.col_offset + 1)

    def _global_mutation(self, name: str, line: int, col: int) -> None:
        self.summary.global_mutations.append(
            GlobalMutation(name, line, col, self.module_locks > 0)
        )

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self.frame is not None:
            verdict, calls = self._classify(node.value)
            frame = self.frame
            if verdict in ("noncanonical", "stringified", "canonical"):
                if _SERIAL_PRIORITY.index(verdict) < _SERIAL_PRIORITY.index(
                    frame.serial_direct or "none"
                ):
                    frame.serial_direct = verdict
            for callee in sorted(calls):
                if callee not in frame.serial_callees:
                    frame.serial_callees.append(callee)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------- #
    def _callable_ref_site(self, expr: ast.expr, *, via_thread: bool) -> CallSite | None:
        """Encode a callable *reference* (thread target, executor arg)."""
        if isinstance(expr, ast.Name):
            return CallSite(self._resolve_name(expr.id), "plain", self.locked, via_thread)
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if isinstance(base, ast.Name) and base.id == "self":
                return CallSite(expr.attr, "self", self.locked, via_thread)
            attr = _self_attr(base)
            if attr is not None:
                return CallSite(f"{attr}.{expr.attr}", "selfattr", self.locked, via_thread)
            if isinstance(base, ast.Name):
                return CallSite(f"{base.id}.{expr.attr}", "var", self.locked, via_thread)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        current = self.current
        line, col = node.lineno, node.col_offset + 1
        locked = self.locked

        # Outgoing call edge.
        if isinstance(func, ast.Name):
            current.calls.append(
                CallSite(self._resolve_name(func.id), "plain", locked)
            )
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self":
                current.calls.append(
                    CallSite(func.attr, "self", locked, class_locked=self.class_locks > 0)
                )
                for scan in self.local_scans:
                    if scan.method is not None:
                        scan.method.calls.append(
                            CallSite(
                                func.attr, "self",
                                scan.locks > 0 or self.module_locks > 0,
                                class_locked=scan.locks > 0,
                            )
                        )
            else:
                attr = _self_attr(base)
                dotted = dotted_name(func)
                if attr is not None:
                    current.calls.append(
                        CallSite(f"{attr}.{func.attr}", "selfattr", locked)
                    )
                elif dotted is not None:
                    resolved = self._resolve_dotted_spelling(dotted)
                    head = dotted.partition(".")[0]
                    if (
                        self.fn_depth
                        and head in current.var_types
                        and dotted == f"{head}.{func.attr}"
                    ):
                        current.calls.append(
                            CallSite(f"{head}.{func.attr}", "var", locked)
                        )
                    else:
                        current.calls.append(
                            CallSite(resolved, "plain", locked)
                        )

        # Instance-mutator calls (self.X.append(...)).
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            self._mutation(_self_attr(func.value), line, col)

        # Module-global mutator calls (CACHE.setdefault(...)).
        if (
            self.fn_depth
            and isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.summary.mutable_globals
        ):
            self._global_mutation(func.value.id, line, col)

        # Wire/trace sinks.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in WRITE_SINKS
            and node.args
        ):
            verdict, calls = self._classify(node.args[0])
            if verdict in ("noncanonical", "stringified"):
                current.sinks.append(SinkWrite(line, col, direct=verdict))
            elif calls:
                current.sinks.append(SinkWrite(line, col, callees=sorted(calls)))
        # json.dump(obj, fh) writes the file itself — treat as a sink too.
        direct_dump = json_dump_canonicality(node, self.imports)
        if direct_dump == "noncanonical" and resolve_call_target(
            node, self.imports
        ) == "json.dump":
            current.sinks.append(SinkWrite(line, col, direct="noncanonical"))

        # Round callables (MPC001).
        if isinstance(func, ast.Attribute) and func.attr in _ROUND_APIS and node.args:
            self._record_round_arg(func.attr, node.args[0], node)

        # Thread/executor registrations.
        target_dotted = resolve_call_target(node, self.imports)
        if target_dotted == "threading.Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    site = self._callable_ref_site(kw.value, via_thread=True)
                    if site is not None:
                        current.calls.append(site)
        elif isinstance(func, ast.Attribute) and func.attr == "submit" and node.args:
            site = self._callable_ref_site(node.args[0], via_thread=True)
            if site is not None:
                current.calls.append(site)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "run_in_executor"
            and len(node.args) >= 2
        ):
            site = self._callable_ref_site(node.args[1], via_thread=True)
            if site is not None:
                current.calls.append(site)

        self.generic_visit(node)

    def _record_round_arg(self, api: str, arg: ast.expr, node: ast.Call) -> None:
        current = self.current
        line, col = node.lineno, node.col_offset + 1
        if isinstance(arg, ast.Lambda):
            current.rounds.append(RoundFact(api, "lambda", "", line, col))
        elif isinstance(arg, ast.Call):
            current.rounds.append(RoundFact(api, "constructed", "", line, col))
        elif isinstance(arg, ast.Attribute):
            dotted = dotted_name(arg)
            if isinstance(arg.value, ast.Name) and arg.value.id == "self":
                current.rounds.append(RoundFact(api, "boundmethod", dotted or "", line, col))
            elif dotted is not None:
                resolved = self._resolve_dotted_spelling(dotted)
                head = dotted.partition(".")[0]
                if resolved != dotted or head not in current.var_types:
                    current.rounds.append(RoundFact(api, "name", resolved, line, col))
                else:
                    current.rounds.append(RoundFact(api, "boundmethod", dotted, line, col))
        elif isinstance(arg, ast.Name):
            if arg.id in self.nested_names:
                current.rounds.append(RoundFact(api, "nested", arg.id, line, col))
            else:
                current.rounds.append(
                    RoundFact(api, "name", self._resolve_name(arg.id), line, col)
                )


# --------------------------------------------------------------------------- #
# Module-level structure (imports, exports, locks, globals, classes)
# --------------------------------------------------------------------------- #
def _collect_module_level(
    summary: ModuleSummary, tree: ast.Module, imports: ImportMap
) -> None:
    for stmt in tree.body:
        for node in _block_classes(stmt):
            _record_class(summary, node, imports)
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                summary.imported_modules.append(alias.name)
                bound = alias.asname or alias.name.partition(".")[0]
                summary.exports[bound] = alias.name if alias.asname else alias.name.partition(".")[0]
        elif isinstance(stmt, ast.ImportFrom):
            target = resolve_relative_import(summary.relpath, stmt.module, stmt.level)
            if target is None:
                continue
            summary.imported_modules.append(target)
            for alias in stmt.names:
                if alias.name == "*":
                    summary.star_from.append(target)
                else:
                    summary.exports[alias.asname or alias.name] = f"{target}.{alias.name}"
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.exports[stmt.name] = f"{summary.module}.{stmt.name}"
        elif isinstance(stmt, ast.ClassDef):
            _record_class(summary, stmt, imports)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value = stmt.value
            if value is None:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names == ["__all__"] and isinstance(value, (ast.List, ast.Tuple)):
                summary.all_names = [
                    e.value
                    for e in value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
            is_mutable = isinstance(value, (ast.Dict, ast.List, ast.Set))
            if isinstance(value, ast.Call):
                dotted = resolve_call_target(value, imports)
                if dotted in _LOCK_FACTORIES:
                    summary.module_locks.extend(names)
                    continue
                is_mutable = is_mutable or dotted in _MUTABLE_FACTORIES
            if is_mutable:
                summary.mutable_globals.extend(names)
            for name in names:
                summary.exports.setdefault(name, f"{summary.module}.{name}")


def _record_class(summary: ModuleSummary, node: ast.ClassDef, imports: ImportMap) -> None:
    """Record a class bound in the module namespace.

    A redefinition (try/except fallback) extends the record, as its
    methods share the ``Class.method`` frames.
    """
    summary.exports[node.name] = f"{summary.module}.{node.name}"
    cls = summary.classes.setdefault(node.name, ClassSummary(name=node.name))
    cls.definitions += 1
    cls.methods += _method_names(node)
    cls.lock_attrs += [
        attr for attr in _lock_attrs(node, imports) if attr not in cls.lock_attrs
    ]
    for base in node.bases:
        dotted = dotted_name(base)
        if dotted is not None:
            cls.bases.append(imports.resolve(dotted))


def _block_classes(stmt: ast.stmt) -> Iterator[ast.ClassDef]:
    """Classes defined inside a module-level block (``try:``, ``if``,
    ``with``), in source order.  They bind in the module namespace, and
    the extractor visits their methods as module methods."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return
    for child in ast.iter_child_nodes(stmt):
        body = child.body if isinstance(child, (ast.ExceptHandler, ast.match_case)) else [child]
        for inner in body:
            if isinstance(inner, ast.ClassDef):
                yield inner
            elif isinstance(inner, ast.stmt):
                yield from _block_classes(inner)


def _method_names(node: ast.ClassDef) -> list[str]:
    return [
        member.name
        for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _lock_attrs(node: ast.ClassDef, imports: ImportMap) -> list[str]:
    """Lock attributes of a class: any ``self.X = threading.Lock()`` in it."""
    attrs: list[str] = []
    for inner in ast.walk(node):
        if not isinstance(inner, ast.Assign) or not isinstance(inner.value, ast.Call):
            continue
        if resolve_call_target(inner.value, imports) not in _LOCK_FACTORIES:
            continue
        for target in inner.targets:
            attr = _self_attr(target)
            if attr is not None and attr not in attrs:
                attrs.append(attr)
    return attrs


def _fact(kind: str, node: ast.AST, message: str) -> Fact:
    return Fact(kind, message, getattr(node, "lineno", 1), getattr(node, "col_offset", 0) + 1)


def _walk(tree: ast.Module) -> tuple[list[ast.AST], dict[ast.AST, ast.AST]]:
    """Every node in :func:`ast.walk` order, and child → parent."""
    nodes: list[ast.AST] = [tree]
    parents: dict[ast.AST, ast.AST] = {}
    for node in nodes:  # appending while iterating: breadth-first
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            nodes.append(child)
    return nodes, parents


def _record_facts(
    summary: ModuleSummary,
    tree: ast.Module,
    nodes: list[ast.AST],
    parents: dict[ast.AST, ast.AST],
    imports: ImportMap,
) -> None:
    """Record the pattern facts: determinism hazards per enclosing top-level
    frame, encodings per module."""
    owner_cache: dict[ast.AST, str] = {}

    def owner(node: ast.AST) -> str:
        if node in owner_cache:
            return owner_cache[node]
        chain: list[ast.AST] = []
        cursor: ast.AST | None = node
        qualname = MODULE_FUNCTION
        seen_fn: ast.AST | None = None
        while cursor is not None:
            chain.append(cursor)
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                seen_fn = cursor
            cursor = parents.get(cursor)
        if seen_fn is not None:
            # The *outermost* function on the chain is the frame.
            for item in reversed(chain):
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    parent = parents.get(item)
                    if isinstance(parent, ast.ClassDef) and parents.get(parent) is tree:
                        qualname = f"{parent.name}.{item.name}"
                    else:
                        qualname = item.name
                    break
        owner_cache[node] = qualname
        return qualname

    facts: list[tuple[str, ast.AST, str]] = []
    facts.extend(("rng", node, message) for node, message in iter_global_rng(nodes, imports))
    facts.extend(("clock", node, message) for node, message in iter_wall_clock(nodes, imports))
    facts.extend(
        ("set-order", node, message) for node, message in iter_set_order(nodes, parents)
    )
    for kind, node, message in facts:
        qualname = owner(node)
        frame = summary.functions.get(qualname)
        if frame is None:
            frame = summary.functions[MODULE_FUNCTION]
        frame.det_facts.append(_fact(kind, node, message))

    summary.facts = [
        _fact("encoding", node, message)
        for node, message in iter_noncanonical_json(nodes, imports)
    ]
    summary.facts += [
        _fact("encoding", node, message) for node, message in iter_stringified_writes(nodes)
    ]


def summarize_module(relpath: str, source: str) -> ModuleSummary:
    """Build the :class:`ModuleSummary` of one source file.

    Raises :class:`SyntaxError` (or :class:`ValueError` for null bytes)
    on unparsable source and :class:`ValueError` on an unknown scope in a
    ``# repro-lint: scope=`` comment.
    """
    tree = ast.parse(source, filename=relpath)
    override = scope_override(source)
    scopes = override if override is not None else classify(relpath)
    nodes, parents = _walk(tree)
    imports = build_import_map(nodes)
    summary = ModuleSummary(
        relpath=relpath,
        module=module_name(relpath),
        scopes=sorted(scopes),
    )
    _collect_module_level(summary, tree, imports)
    extractor = _Extractor(summary, imports)
    for stmt in tree.body:
        extractor.visit(stmt)
    _record_facts(summary, tree, nodes, parents, imports)
    return summary
