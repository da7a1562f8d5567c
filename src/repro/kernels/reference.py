"""Retained pure-Python reference loops for the vectorized kernels.

Each function mirrors a kernel in :mod:`repro.kernels.local_ratio`,
:mod:`repro.kernels.coverage` or :mod:`repro.kernels.mis` — same signature,
same state mutations — but processes items one at a time exactly like the
pre-kernel algorithm layer did.  The golden-equivalence tests
(``tests/kernels/``) run kernel and reference side by side on randomized
instances and assert byte-identical outputs (chosen lists, stacks, and
every mutated float array).

Do not optimise these: their value is being the obviously-sequential
specification the kernels are checked against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "set_cover_reduction_reference",
    "vertex_cover_reduction_reference",
    "matching_reduction_reference",
    "b_matching_reduction_reference",
    "central_matching_pass_reference",
    "unwind_matching_reference",
    "unwind_b_matching_reference",
    "uncovered_counts_reference",
    "greedy_mis_pass_reference",
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


def vertex_cover_reduction_reference(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    residual: np.ndarray,
    in_cover: np.ndarray,
    order: np.ndarray,
    chosen: list[int],
) -> int:
    selected_before = len(chosen)
    for edge in np.asarray(order, dtype=np.int64):
        u, v = int(edge_u[edge]), int(edge_v[edge])
        if in_cover[u] or in_cover[v]:
            continue
        eps = float(min(residual[u], residual[v]))
        residual[u] -= eps
        residual[v] -= eps
        for vertex in (u, v):
            if residual[vertex] <= 1e-12 and not in_cover[vertex]:
                in_cover[vertex] = True
                chosen.append(int(vertex))
    return len(chosen) - selected_before


def matching_reduction_reference(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weights: np.ndarray,
    phi: np.ndarray,
    order: np.ndarray,
    stack: list[int],
) -> int:
    pushed_before = len(stack)
    for edge in np.asarray(order, dtype=np.int64):
        edge = int(edge)
        u, v = int(edge_u[edge]), int(edge_v[edge])
        residual = float(weights[edge]) - phi[u] - phi[v]
        if residual <= 1e-12:
            continue
        phi[u] += residual
        phi[v] += residual
        stack.append(edge)
    return len(stack) - pushed_before


def b_matching_reduction_reference(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    epsilon: float,
    phi: np.ndarray,
    order: np.ndarray,
    stack: list[int],
) -> int:
    pushed_before = len(stack)
    for edge in np.asarray(order, dtype=np.int64):
        edge = int(edge)
        u, v = int(edge_u[edge]), int(edge_v[edge])
        w = float(weights[edge])
        if w <= (1.0 + epsilon) * (phi[u] + phi[v]) + 1e-12:
            continue
        residual = w - phi[u] - phi[v]
        phi[u] += residual / capacities[u]
        phi[v] += residual / capacities[v]
        stack.append(edge)
    return len(stack) - pushed_before


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


def unwind_matching_reference(
    edge_u: np.ndarray, edge_v: np.ndarray, num_vertices: int, stack: Sequence[int]
) -> list[int]:
    matched = np.zeros(num_vertices, dtype=bool)
    matching: list[int] = []
    for edge_id in reversed(list(stack)):
        u, v = int(edge_u[edge_id]), int(edge_v[edge_id])
        if not matched[u] and not matched[v]:
            matched[u] = True
            matched[v] = True
            matching.append(int(edge_id))
    return matching


def unwind_b_matching_reference(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    stack: Sequence[int],
    capacities: np.ndarray,
) -> list[int]:
    remaining = capacities.astype(np.int64).copy()
    chosen: list[int] = []
    for edge_id in reversed(list(stack)):
        u, v = int(edge_u[edge_id]), int(edge_v[edge_id])
        if remaining[u] > 0 and remaining[v] > 0:
            remaining[u] -= 1
            remaining[v] -= 1
            chosen.append(int(edge_id))
    return chosen


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


def greedy_mis_pass_reference(
    adj_indptr: np.ndarray,
    adj_indices: np.ndarray,
    candidates: np.ndarray,
    blocked: np.ndarray,
    added: list[int],
) -> int:
    added_before = len(added)
    for v in np.asarray(candidates, dtype=np.int64):
        v = int(v)
        if blocked[v]:
            continue
        added.append(v)
        blocked[v] = True
        neighbours = adj_indices[adj_indptr[v] : adj_indptr[v + 1]]
        if neighbours.size:
            blocked[neighbours] = True
    return len(added) - added_before


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
