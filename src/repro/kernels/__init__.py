"""Vectorized NumPy kernels for the paper's algorithm hot paths.

This package is the performance layer between the data structures
(:class:`~repro.graphs.graph.Graph`, CSR adjacency;
:class:`~repro.setcover.instance.SetCoverInstance`, CSR incidence) and the
algorithm layer (``repro.core.*``, ``repro.baselines.*``):

* :mod:`~repro.kernels.csr` — flat CSR gathers and the occurs-once scan
  that powers the batched window loops;
* :mod:`~repro.kernels.local_ratio` — batched subtract-and-freeze weight
  reductions (set cover, vertex cover, matching, b-matching), the central
  machine pass of Algorithm 4, and vectorized stack unwinding;
* :mod:`~repro.kernels.coverage` — incremental uncovered-count maintenance
  for the greedy set cover algorithms;
* :mod:`~repro.kernels.mis` — batched greedy MIS scan and residual-degree
  maintenance;
* :mod:`~repro.kernels.reference` — the retained pure-Python loops the
  kernels are golden-tested against.

Every kernel is *byte-identical* to its reference: same floating point
operations applied in an equivalent order, same result lists, same RNG
consumption (kernels draw no randomness).  See ``docs/PERFORMANCE.md``.
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
    vertex_cover_reduction,
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
    "vertex_cover_reduction",
    "blocked_degree_decrements",
    "greedy_mis_pass",
]
