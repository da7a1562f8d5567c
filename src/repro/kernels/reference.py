"""Retained pure-Python reference loops for the kernels.

Each function mirrors a kernel —
:func:`~repro.kernels.local_ratio.set_cover_reduction`,
:func:`~repro.kernels.mis.blocked_degree_decrements`, the uncovered counts
of :class:`~repro.kernels.coverage.CoverageCounter` and the greedy set
cover built on them — with the same signature and the same state
mutations, but processes items one at a time exactly like the pre-kernel
algorithm layer did.  :func:`central_matching_pass_reference` does
Algorithm 4's central walk with NumPy operations per host and checks the
list walk of :func:`~repro.kernels.local_ratio.central_matching_pass`,
whose per-candidate arithmetic it must match bit for bit.  The
golden-equivalence tests (``tests/kernels/``) run kernel and reference
side by side on randomized instances and assert byte-identical outputs
(chosen lists, stacks, and every mutated float array).  The other
plain-loop kernels have no reference here; their outputs are pinned by
digests in the same tests.

Do not optimise these: their value is being the obviously-sequential
specification the kernels are checked against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "set_cover_reduction_reference",
    "central_matching_pass_reference",
    "uncovered_counts_reference",
    "blocked_degree_decrements_reference",
    "greedy_set_cover_reference",
]


def set_cover_reduction_reference(
    element_indptr: np.ndarray,
    element_indices: np.ndarray,
    set_indptr: np.ndarray,
    set_indices: np.ndarray,
    residual: np.ndarray,
    covered: np.ndarray,
    in_cover: np.ndarray,
    order: np.ndarray,
    chosen: list[int],
) -> int:
    selected_before = len(chosen)
    for element in np.asarray(order, dtype=np.int64):
        element = int(element)
        if covered[element]:
            continue
        owners = element_indices[element_indptr[element] : element_indptr[element + 1]]
        if owners.size == 0:
            continue
        eps = float(residual[owners].min())
        residual[owners] -= eps
        newly_zero = owners[residual[owners] <= 1e-12]
        for set_id in newly_zero:
            set_id = int(set_id)
            if not in_cover[set_id]:
                in_cover[set_id] = True
                chosen.append(set_id)
                elements = set_indices[set_indptr[set_id] : set_indptr[set_id + 1]]
                if elements.size:
                    covered[elements] = True
    return len(chosen) - selected_before


def central_matching_pass_reference(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weights: np.ndarray,
    phi: np.ndarray,
    on_stack: np.ndarray,
    sample_edges: np.ndarray,
    boundaries: np.ndarray,
    stack: list[int],
) -> int:
    pushed_before = len(stack)
    for v in range(boundaries.size - 1):
        lo, hi = boundaries[v], boundaries[v + 1]
        if lo == hi:
            continue
        candidate_edges = sample_edges[lo:hi]
        residuals = (
            weights[candidate_edges]
            - phi[edge_u[candidate_edges]]
            - phi[edge_v[candidate_edges]]
        )
        residuals = np.where(on_stack[candidate_edges], -np.inf, residuals)
        best = int(np.argmax(residuals))
        if residuals[best] <= 1e-12:
            continue
        edge = int(candidate_edges[best])
        reduction = float(residuals[best])
        phi[edge_u[edge]] += reduction
        phi[edge_v[edge]] += reduction
        on_stack[edge] = True
        stack.append(edge)
    return len(stack) - pushed_before


def uncovered_counts_reference(instance, covered: np.ndarray) -> np.ndarray:
    """Per-set ``|S_ℓ \\ C|`` by rescanning every set's element list."""
    counts = np.zeros(instance.num_sets, dtype=np.int64)
    for set_id in range(instance.num_sets):
        elements = instance.set_elements(set_id)
        if elements.size:
            counts[set_id] = int(np.count_nonzero(~covered[elements]))
    return counts


def greedy_set_cover_reference(instance) -> list[int]:
    """Chvátal's greedy with per-pop element-list rescans (the pre-kernel baseline)."""
    import heapq

    n, m = instance.num_sets, instance.num_elements
    covered = np.zeros(m, dtype=bool)
    chosen: list[int] = []
    if m == 0:
        return chosen
    weights = instance.weights

    def effectiveness(set_id: int) -> float:
        elems = instance.set_elements(set_id)
        if elems.size == 0:
            return 0.0
        return float(np.count_nonzero(~covered[elems])) / float(weights[set_id])

    heap: list[tuple[float, int]] = [(-effectiveness(i), i) for i in range(n)]
    heapq.heapify(heap)
    num_covered = 0
    while num_covered < m and heap:
        neg_value, set_id = heapq.heappop(heap)
        current = effectiveness(set_id)
        if current <= 0.0:
            continue
        if -neg_value > current + 1e-12:
            heapq.heappush(heap, (-current, set_id))
            continue
        chosen.append(set_id)
        elems = instance.set_elements(set_id)
        newly = ~covered[elems]
        num_covered += int(np.count_nonzero(newly))
        covered[elems] = True
    return chosen


def blocked_degree_decrements_reference(
    adj_indptr: np.ndarray,
    adj_indices: np.ndarray,
    newly_blocked: np.ndarray,
    blocked: np.ndarray,
    degrees: np.ndarray,
) -> None:
    """The pre-kernel ``MISState.add`` degree update: nested per-vertex loops."""
    for w in np.asarray(newly_blocked, dtype=np.int64):
        w = int(w)
        for x in adj_indices[adj_indptr[w] : adj_indptr[w + 1]]:
            x = int(x)
            if not blocked[x]:
                degrees[x] -= 1
        degrees[w] = 0
