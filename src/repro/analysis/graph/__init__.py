"""Whole-program analysis: module facts, import graph, call graph, scopes.

Lint scopes classify modules by *path* — ``kernels/`` is deterministic,
``service/`` is threaded — which is exactly right for code that lives
where its invariant binds, and exactly wrong for the helper one directory
over.  A serialiser in ``analysis/tables.py`` that a solver calls is
solver code; a mutation helper the service's executor thread reaches is
threaded code.  This package parses the source tree **once**, builds a
module import graph and a name-resolved call graph over per-function
summaries, and propagates the lint scopes transitively along call edges.
Every lint rule reads it: a module-scoped rule (DET001) takes a module's
own facts, a whole-program rule (DET101) follows them to what *reaches*
the code.

Layering: :mod:`~repro.analysis.graph.summary` extracts one
:class:`ModuleSummary` per file (imports, exports, functions, classes,
per-function facts); :mod:`~repro.analysis.graph.callgraph` resolves call
sites to function ids across aliased imports, re-exports and
``import *``; :mod:`~repro.analysis.graph.program` assembles the
:class:`ProgramGraph` — reachability, scope propagation, call chains.
"""

from .program import ProgramGraph, build_program
from .summary import FunctionSummary, ModuleSummary, summarize_module

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "ProgramGraph",
    "build_program",
    "summarize_module",
]
