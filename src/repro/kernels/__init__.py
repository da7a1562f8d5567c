"""The paper's algorithm hot paths, vectorized with NumPy where it pays.

This package is the performance layer between the data structures
(:class:`~repro.graphs.graph.Graph`, CSR adjacency;
:class:`~repro.setcover.instance.SetCoverInstance`, CSR incidence) and the
algorithm layer (``repro.core.*``, ``repro.baselines.*``):

* :mod:`~repro.kernels.csr` — flat CSR gathers and the occurs-once scan
  that powers the batched window loops;
* :mod:`~repro.kernels.local_ratio` — the subtract-and-freeze loops: the
  set cover reduction, which vertex cover also runs on its ``f = 2``
  encoding, is window-batched; the central machine pass of Algorithm 4
  walks Python lists of the sampled edges; the matching and b-matching
  reductions and the two stack unwinds are plain loops;
* :mod:`~repro.kernels.coverage` — incremental uncovered-count maintenance
  for the greedy set cover algorithms;
* :mod:`~repro.kernels.mis` — the per-vertex greedy MIS scan and the
  vectorized residual-degree update;
* :mod:`~repro.kernels.reference` — the retained pure-Python loops the
  vectorized kernels are golden-tested against.

A loop is vectorized only where that saves more than 1% of the
benchmark's ``mpc`` pass at its call site.  Every vectorized kernel is
*byte-identical* to its reference: same floating point operations applied
in an equivalent order, same result lists, same RNG consumption (kernels
draw no randomness).  See ``docs/PERFORMANCE.md``.
"""

from .coverage import CoverageCounter
from .csr import build_csr, gather_rows, first_occurrence_mask
from .local_ratio import (
    b_matching_reduction,
    capacity_array,
    central_matching_pass,
    matching_reduction,
    set_cover_reduction,
    unwind_b_matching,
    unwind_matching,
)
from .mis import blocked_degree_decrements, greedy_mis_pass

__all__ = [
    "CoverageCounter",
    "build_csr",
    "gather_rows",
    "first_occurrence_mask",
    "b_matching_reduction",
    "capacity_array",
    "central_matching_pass",
    "matching_reduction",
    "set_cover_reduction",
    "unwind_b_matching",
    "unwind_matching",
    "blocked_degree_decrements",
    "greedy_mis_pass",
]
