"""Module classification: which invariants bind which parts of the tree.

The checkers are not universally applicable — ``time.time()`` is fine in
the service's uptime counter but a determinism bug inside a solver — so
every scanned file is classed into zero or more *scopes*, and each
rule polices the scope its hazard binds in:

``deterministic``
    Code whose outputs feed records, cache keys, or shard assignments:
    the solver cores, kernels, baselines, the MPC simulator, the sweep
    backends, the distributed tier, the registry, and the workload
    generators.  Unseeded global RNG and order-leaking set iteration
    (DET001) are defects here.
``canonical``
    Code that renders wire or cache payloads whose *bytes* are compared:
    the backends' signatures, the distributed protocol, the service
    response path, ``repro.solve``'s canonical JSON, and every CLI JSON
    printer (CI byte-compares CLI output across backends).  WIRE001
    binds here.
``clockfree``
    The algorithmic tier, where a wall-clock read (DET001) either leaks
    nondeterminism into records or silently couples results to machine
    speed.  Timing *measurement* belongs to the harness/bench layer,
    which is deliberately outside this scope.
``threaded``
    Modules whose objects are shared across threads (the asyncio
    service's executor threads, the worker state machine, the sweep
    backends shared with the service batcher).  CONC001 binds here.

Classification is by path *tail* relative to the ``repro`` package (so
it works from a repo checkout, an installed tree, or a test fixture
mirroring the layout).  A fixture or an out-of-tree file can force its
scopes with a magic comment anywhere in the file::

    # repro-lint: scope=deterministic,canonical

A scope reaches further than its modules: the program graph propagates
it to every function the module's code calls (see
:mod:`repro.analysis.graph.program`).
"""

from __future__ import annotations

import re
from pathlib import PurePosixPath

__all__ = [
    "ALL_SCOPES",
    "SCOPE_RULES",
    "classify",
    "module_tail",
    "scope_override",
]

ALL_SCOPES = frozenset({"deterministic", "canonical", "clockfree", "threaded"})

#: (path-tail prefix, scope) — a file collects every scope whose prefix
#: matches.  Exact file names (no trailing slash) match exactly.
SCOPE_RULES: tuple[tuple[str, str], ...] = (
    ("core/", "deterministic"),
    ("kernels/", "deterministic"),
    ("baselines/", "deterministic"),
    ("mapreduce/", "deterministic"),
    ("backends/", "deterministic"),
    ("distributed/", "deterministic"),
    ("registry/", "deterministic"),
    ("setcover/", "deterministic"),
    ("graphs/", "deterministic"),
    ("datasets/", "deterministic"),
    ("experiments/", "deterministic"),
    ("loadgen/traces.py", "deterministic"),
    ("backends/", "canonical"),
    ("distributed/", "canonical"),
    ("registry/", "canonical"),
    ("loadgen/", "canonical"),
    ("service/server.py", "canonical"),
    ("mapreduce/executor.py", "canonical"),
    ("datasets/store.py", "canonical"),
    ("cli.py", "canonical"),
    ("core/", "clockfree"),
    ("kernels/", "clockfree"),
    ("baselines/", "clockfree"),
    ("mapreduce/", "clockfree"),
    ("setcover/", "clockfree"),
    ("graphs/", "clockfree"),
    ("registry/", "clockfree"),
    ("service/", "threaded"),
    ("distributed/", "threaded"),
    ("backends/", "threaded"),
)

_SCOPE_COMMENT = re.compile(r"#\s*repro-lint:\s*scope=([A-Za-z0-9_,\-]+)")


def module_tail(relpath: str) -> str:
    """Path tail after the last ``repro`` package directory.

    ``src/repro/service/metrics.py`` → ``service/metrics.py``; paths with
    no ``repro`` component are returned whole, so fixtures laid out as
    ``core/snippet.py`` classify the same way the real tree does.
    """
    parts = PurePosixPath(relpath.replace("\\", "/")).parts
    if "repro" in parts:
        last = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        parts = parts[last + 1 :]
    return "/".join(parts)


def classify(relpath: str) -> frozenset[str]:
    """The scope set for one file path (rule-based; override not applied)."""
    tail = module_tail(relpath)
    scopes = set()
    for prefix, scope in SCOPE_RULES:
        if prefix.endswith("/"):
            if tail.startswith(prefix):
                scopes.add(scope)
        elif tail == prefix:
            scopes.add(scope)
    return frozenset(scopes)


def scope_override(source: str) -> frozenset[str] | None:
    """The forced scope set from a ``# repro-lint: scope=...`` comment.

    Returns ``None`` when the file declares nothing.  Unknown scope names
    raise — a typo here would silently disable checkers.
    """
    match = _SCOPE_COMMENT.search(source)
    if match is None:
        return None
    names = frozenset(n.strip() for n in match.group(1).split(",") if n.strip())
    unknown = names - ALL_SCOPES
    if unknown:
        raise ValueError(f"unknown lint scope(s) {sorted(unknown)}; known: {sorted(ALL_SCOPES)}")
    return names
