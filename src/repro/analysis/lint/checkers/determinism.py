"""DET001–DET004: the determinism checkers.

Each one rejects a pattern that has historically broken the repo's
byte-identity contract: global RNG state, non-canonical JSON on wire
paths, order-leaking set iteration, and wall-clock reads inside the
algorithmic tier.

The detection logic lives in module-level ``iter_*`` generators over a
module's nodes in ``ast.walk`` order (yielding ``(node, message)``
pairs) that the summariser
(:mod:`repro.analysis.graph.summary`) records as facts.  The rules here
report the facts of modules that carry the scope themselves; DET101
reports the same facts in helpers that inherit the scope over call edges.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Mapping, Sequence

from ..registry import LocalFactChecker, register_program_checker
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

#: Attribute calls that put bytes on a wire or into a saved trace.
WRITE_SINKS = frozenset({"write", "sendall", "send", "sendto"})


# --------------------------------------------------------------------------- #
# Reusable fact iterators (shared with the whole-program summariser)
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


def _const_true(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _canonical_separators(node: ast.expr) -> bool:
    return (
        isinstance(node, (ast.Tuple, ast.List))
        and len(node.elts) == 2
        and all(isinstance(e, ast.Constant) for e in node.elts)
        and [e.value for e in node.elts] in ([",", ":"], [", ", ": "])
    )


def json_dump_canonicality(node: ast.Call, imports: ImportMap) -> str | None:
    """Classify a call: ``None`` if not json.dumps/json.dump, else verdict.

    Returns ``"canonical"`` when the call sorts keys with default or
    canonical separators and no lossy ``default=`` hook, ``"noncanonical"``
    otherwise, ``"unknown"`` when ``**kwargs`` makes the call unjudgeable.
    """
    target = resolve_call_target(node, imports)
    if target not in ("json.dumps", "json.dump"):
        return None
    keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
    if any(kw.arg is None for kw in node.keywords):
        return "unknown"
    if not _const_true(keywords.get("sort_keys")):
        return "noncanonical"
    if "default" in keywords:
        return "noncanonical"
    separators = keywords.get("separators")
    if separators is not None and not _canonical_separators(separators):
        return "noncanonical"
    return "canonical"


def iter_noncanonical_json(
    nodes: Iterable[ast.AST], imports: ImportMap
) -> Iterator[tuple[ast.AST, str]]:
    """Every ``json.dumps``/``json.dump`` call that is not canonical."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node, imports)
        if target not in ("json.dumps", "json.dump"):
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
        has_kwargs = any(kw.arg is None for kw in node.keywords)
        if not _const_true(keywords.get("sort_keys")) and not has_kwargs:
            yield (
                node,
                f"{target} on a canonical path without sort_keys=True — "
                "output bytes depend on dict construction order",
            )
        if "default" in keywords:
            yield (
                node,
                f"{target} with a default= encoder on a canonical path — "
                "lossy coercion (e.g. default=str) hides type drift; "
                "normalise values explicitly before encoding",
            )
        separators = keywords.get("separators")
        if separators is not None and not _canonical_separators(separators):
            yield (
                node,
                f"{target} with non-canonical separators — use (',', ':') "
                "compact or the default",
            )


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
    arrive through helper calls are the interprocedural WIRE001's job.
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


# --------------------------------------------------------------------------- #
# The rules: the facts of modules that carry the scope themselves
# --------------------------------------------------------------------------- #
@register_program_checker
class UnseededGlobalRNG(LocalFactChecker):
    """DET001 — ``random.*`` / ``np.random.*`` global state in solver code.

    Global RNG state is shared across every caller in the process: a
    library import, a logging helper, or a second sweep point drawing
    from it reorders everyone else's stream, so results stop being a
    function of the per-point seed.  Solvers must accept a seeded
    ``numpy.random.Generator`` (or ``random.Random``) instead.
    """

    code = "DET001"
    name = "unseeded-global-rng"
    description = "global RNG state reachable from solver/kernel/backend code"
    scopes = frozenset({"deterministic"})
    kind = "rng"


@register_program_checker
class NonCanonicalJSON(LocalFactChecker):
    """DET002 — non-canonical encodings on wire/trace surfaces.

    Wire payloads, cache signatures, and CLI JSON are byte-compared
    across backends and surfaces; an unsorted ``json.dumps`` (or the
    file-object ``json.dump`` variant) ties the bytes to dict
    construction order, a ``default=`` hook silently coerces unencodable
    values, and a ``str(obj).encode()`` write renders repr order straight
    onto the wire.
    """

    code = "DET002"
    name = "non-canonical-json"
    description = "non-canonical json.dumps/json.dump or stringified write on a wire path"
    scopes = frozenset({"canonical"})
    kind = "encoding"


@register_program_checker
class SetIterationOrder(LocalFactChecker):
    """DET003 — iterating a ``set`` where the order can escape.

    Python set iteration order depends on insertion history and element
    hashes (salted for str); a set-ordered loop writing into records,
    shard lists, or cache keys makes output bytes vary run to run.
    Order-insensitive consumers (``sorted``, ``sum``, ``min``/``max``,
    ``any``/``all``, ``len``, set-to-set comprehension) are exempt.
    """

    code = "DET003"
    name = "set-iteration-order"
    description = "set iteration whose order can escape into outputs"
    scopes = frozenset({"deterministic"})
    kind = "set-order"


@register_program_checker
class WallClockInSolver(LocalFactChecker):
    """DET004 — wall-clock reads inside solver/mapreduce/kernel modules.

    ``time.time()`` / ``datetime.now()`` inside the algorithmic tier
    either leaks machine time into records (breaking byte-identity) or
    couples control flow to machine speed (breaking replay).  Timing
    belongs to the harness/bench layer, which injects its own clocks;
    monotonic *measurement* clocks (``perf_counter``) are not flagged.
    """

    code = "DET004"
    name = "wall-clock-in-solver"
    description = "wall-clock call inside a deterministic module"
    scopes = frozenset({"clockfree"})
    kind = "clock"


__all__ = [
    "WRITE_SINKS",
    "NonCanonicalJSON",
    "SetIterationOrder",
    "UnseededGlobalRNG",
    "WallClockInSolver",
    "iter_global_rng",
    "iter_noncanonical_json",
    "iter_set_order",
    "iter_stringified_writes",
    "iter_wall_clock",
    "json_dump_canonicality",
]
