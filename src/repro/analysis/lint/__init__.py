"""``repro lint`` — the determinism & concurrency static-analysis pass.

Every execution surface in this repository — backends, kernels, the
solver service, the distributed coordinator — stakes its correctness on
*byte-identical* outputs across execution modes.  The runtime test suite
can only sample that invariant (a handful of configurations per CI run);
this package proves whole classes of it at review time.  One pass per
module records its facts (:mod:`repro.analysis.graph.summary`); the rules
below report the facts of modules that carry a scope themselves, the
patterns that historically break reproducibility:

========  ==============================================================
DET001    unseeded global RNG (``random.*`` / ``np.random.*`` module
          state) reachable from solver/kernel/backend code
DET002    ``json.dumps`` on a wire/canonical path without
          ``sort_keys=True`` (or with a lossy ``default=`` encoder /
          non-canonical separators)
DET003    iteration over a ``set`` whose order can escape into records,
          shard assignments, or cache keys
DET004    wall-clock reads (``time.time``, ``datetime.now``) inside
          solver/mapreduce/kernel modules instead of injected clocks
CONC001   lock-guarded mutable state in the threaded modules mutated
          outside a held-lock region
REG001    ``@register_algorithm`` specs missing kind/bounds or with
          non-derivable parameters
========  ==============================================================

The same engine runs the whole-program rules over the import and call
graphs (``repro.analysis.graph``), judging a function by what *reaches*
it rather than where it sits:

========  ==============================================================
WIRE001   non-canonical serialization reaching a wire/trace sink through
          helper calls (taint tracked across modules)
DET101    unseeded RNG / wall-clock / set-order in helpers *reachable*
          from deterministic or clock-free entry points
CONC101   unlocked mutation of lock-guarded state on a cross-module
          thread-reachable path (lock discipline across functions)
MPC001    closures/lambdas/bound methods passed to ``map_round`` /
          ``SweepRoundExecutor`` — import-path dispatch cannot ship them
========  ==============================================================

Findings can be silenced three ways, in decreasing order of preference:
fix the code; suppress one line with ``# repro-lint: disable=CODE`` (a
permanent, reviewed exemption with a rationale comment); or record it in
the committed baseline (``lint-baseline.json``) for pre-existing debt
that should not grow.  CI runs ``repro lint src --json`` as a hard gate:
zero non-baselined findings.

See ``docs/ANALYSIS.md`` for the checker catalogue and workflows.
"""

from .baseline import Baseline, load_baseline, missing_files, write_baseline
from .findings import Finding, FindingStatus
from .registry import all_program_checkers, register_program_checker
from .reporting import render_json, render_sarif, render_text
from .runner import LintReport, lint_paths, lint_source, lint_sources

__all__ = [
    "Baseline",
    "Finding",
    "FindingStatus",
    "LintReport",
    "all_program_checkers",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_baseline",
    "missing_files",
    "register_program_checker",
    "render_json",
    "render_sarif",
    "render_text",
    "write_baseline",
]
