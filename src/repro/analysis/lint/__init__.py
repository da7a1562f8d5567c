"""``repro lint`` — the determinism & concurrency static-analysis pass.

Every execution surface in this repository — backends, kernels, the
solver service, the distributed coordinator — stakes its correctness on
*byte-identical* outputs across execution modes.  The runtime test suite
can only sample that invariant (a handful of configurations per CI run);
this package proves whole classes of it at review time.  One pass per
module records its facts (:mod:`repro.analysis.graph.summary`), the
facts are assembled into an import and call graph
(:mod:`repro.analysis.graph`), and one rule per hazard reports both the
facts of a module that carries the hazard's scope itself (zero hops) and
the same facts in every helper that scope reaches over call edges:

========  ==============================================================
DET001    unseeded global RNG, order-leaking set iteration or a
          wall-clock read in solver/kernel/backend code
WIRE001   non-canonical ``json.dumps``/``json.dump`` or ``str()``
          rendering on a wire/canonical path, including a payload that a
          helper encodes any number of calls away from the sink
CONC001   lock-guarded mutable state mutated outside a held-lock region,
          in a threaded module or on a cross-module thread path
========  ==============================================================

A finding is either fixed or suppressed on its line with
``# repro-lint: disable=CODE`` (a reviewed exemption with a rationale
comment); there is no other way to accept one.  CI runs
``repro lint src --json`` as a hard gate: zero unsuppressed findings.

See ``docs/ANALYSIS.md`` for the rule catalogue and workflows.
"""

from .findings import Finding, FindingStatus
from .registry import all_program_checkers
from .reporting import render_json, render_text
from .runner import LintReport, lint_paths, lint_source, lint_sources

__all__ = [
    "Finding",
    "FindingStatus",
    "LintReport",
    "all_program_checkers",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "render_json",
    "render_text",
]
