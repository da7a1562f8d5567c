"""DET001: the determinism rule.

Three patterns have historically broken the repo's byte-identity
contract from inside solver code: global RNG state, order-leaking set
iteration, and wall-clock reads.  Global RNG state and set order are
hazards in ``deterministic`` code, a wall-clock read in ``clockfree``
code.  DET001 reports each one in a module that carries the scope itself
(zero hops) and in every helper that inherits the scope over call edges,
citing the chain that reaches it.

The detection logic lives in module-level ``iter_*`` generators over a
module's nodes in ``ast.walk`` order (yielding ``(node, message)``
pairs) that the summariser (:mod:`repro.analysis.graph.summary`) records
as each function's ``det_facts``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Mapping, Sequence

from ..findings import Finding
from ..registry import ProgramChecker, ProgramContext
from ._imports import ImportMap, resolve_call_target

#: ``random`` module functions that mutate/read the hidden global state.
_PY_GLOBAL_RNG = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "getstate", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: ``numpy.random`` attributes that are *not* the legacy global-state API.
_NP_ALLOWED = frozenset(
    {
        "BitGenerator", "Generator", "MT19937", "PCG64", "PCG64DXSM",
        "Philox", "RandomState", "SFC64", "SeedSequence", "default_rng",
    }
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Builtins whose result does not depend on argument iteration order.
_ORDER_INSENSITIVE = frozenset(
    {"all", "any", "frozenset", "len", "max", "min", "set", "sorted", "sum"}
)


# --------------------------------------------------------------------------- #
# Fact iterators (run by the summariser)
# --------------------------------------------------------------------------- #
def iter_global_rng(
    nodes: Iterable[ast.AST], imports: ImportMap
) -> Iterator[tuple[ast.AST, str]]:
    """Every call into ``random``/``numpy.random`` global state."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node, imports)
        if target is None:
            continue
        if target.startswith("random.") and target.rpartition(".")[2] in _PY_GLOBAL_RNG:
            yield (
                node,
                f"call to global-state RNG '{target}' — thread a seeded "
                "random.Random / numpy Generator through instead",
            )
        elif target.startswith("numpy.random."):
            attr = target[len("numpy.random.") :]
            if "." not in attr and attr not in _NP_ALLOWED:
                yield (
                    node,
                    f"call to legacy global-state RNG 'numpy.random.{attr}' — "
                    "use numpy.random.default_rng(seed) and pass the Generator",
                )


def iter_wall_clock(
    nodes: Iterable[ast.AST], imports: ImportMap
) -> Iterator[tuple[ast.AST, str]]:
    """Every wall-clock read (monotonic measurement clocks excluded)."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node, imports)
        if target in _WALL_CLOCK:
            yield (
                node,
                f"wall-clock read '{target}' inside a deterministic module — "
                "inject a clock (or move timing to the harness layer)",
            )


def _is_setlike(node: ast.expr, setlike_names: frozenset[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return isinstance(node, ast.Name) and node.id in setlike_names


def _setlike_names(nodes: Iterable[ast.AST]) -> frozenset[str]:
    """Names only ever assigned set-typed expressions (conservative)."""
    setlike: set[str] = set()
    other: set[str] = set()
    for node in nodes:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, (ast.For, ast.AugAssign)):
            # A for-target or augmented assignment makes the binding's
            # type unknowable here; treat the name as non-set.
            target = node.target
            if isinstance(target, ast.Name):
                other.add(target.id)
            continue
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                if _is_setlike(value, frozenset()):
                    setlike.add(target.id)
                else:
                    other.add(target.id)
    return frozenset(setlike - other)


def iter_set_order(
    nodes: Sequence[ast.AST], parents: Mapping[ast.AST, ast.AST]
) -> Iterator[tuple[ast.AST, str]]:
    """Every set iteration whose order can escape into outputs.

    ``parents`` maps each node to its parent.
    """
    setlike = _setlike_names(nodes)
    message = (
        "iteration over a set has nondeterministic order — iterate "
        "sorted(...) or an ordered container before the order can escape"
    )

    def consumer_is_order_insensitive(node: ast.AST) -> bool:
        parent = parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE
            and node in parent.args
        )

    for node in nodes:
        if isinstance(node, ast.For) and _is_setlike(node.iter, setlike):
            yield node.iter, message
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            if isinstance(node, ast.GeneratorExp) and consumer_is_order_insensitive(node):
                continue
            for generator in node.generators:
                if _is_setlike(generator.iter, setlike):
                    yield generator.iter, message
        elif isinstance(node, ast.Call):
            func = node.func
            ordered_builtin = (
                isinstance(func, ast.Name)
                and func.id in ("list", "tuple", "enumerate")
            )
            join = isinstance(func, ast.Attribute) and func.attr == "join"
            if (ordered_builtin or join) and node.args and _is_setlike(
                node.args[0], setlike
            ):
                yield node.args[0], message


class Determinism(ProgramChecker):
    """DET001 — global RNG, set-order or wall-clock hazards in solver code.

    Global RNG state is shared across every caller in the process, so a
    second sweep point drawing from it reorders everyone else's stream;
    set iteration order depends on insertion history and (salted) hashes,
    so a set-ordered loop writing into records, shard lists or cache keys
    varies run to run; and a wall-clock read leaks machine time into
    records or couples control flow to machine speed.  Order-insensitive
    consumers (``sorted``, ``sum``, ``min``/``max``, ``any``/``all``,
    ``len``, set-to-set comprehension), seeded generators and monotonic
    measurement clocks (``perf_counter``) are not flagged.
    """

    code = "DET001"
    description = (
        "unseeded global RNG, order-leaking set iteration or a wall-clock read "
        "in deterministic/clockfree code or in any helper it reaches"
    )

    #: The scope that makes each fact kind a hazard.
    SCOPE_FOR_KIND = {"rng": "deterministic", "set-order": "deterministic", "clock": "clockfree"}

    def check(self, ctx: ProgramContext) -> Iterator[Finding]:
        for relpath, summary in ctx.files.items():
            for fn in summary.functions.values():
                for fact in fn.det_facts:
                    if self.SCOPE_FOR_KIND[fact.kind] in summary.scopes:
                        yield Finding(self.code, fact.message, relpath, fact.line, fact.col)
        # Scope propagation never marks a scope inherited where it is local.
        graph = ctx.graph
        for fid, relpath, fn in graph.functions():
            inherited = graph.inherited.get(fid, set())
            for fact in fn.det_facts:
                scope = self.SCOPE_FOR_KIND[fact.kind]
                if scope in inherited:
                    chain = graph.describe_chain(scope, fid)
                    yield Finding(
                        self.code,
                        f"{fact.message} [reachable from {scope} code: {chain}]",
                        relpath,
                        fact.line,
                        fact.col,
                    )


__all__ = ["Determinism", "iter_global_rng", "iter_set_order", "iter_wall_clock"]
