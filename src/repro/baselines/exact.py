"""Exact and lower-bound reference solvers used to compute approximation ratios.

The experiment harness never reports an approximation ratio without a
reference value.  Depending on instance size that reference is either

* an exact optimum from brute force (tiny instances, used in unit tests), or
* an LP relaxation bound (scipy ``linprog``), which lower-bounds the optimum
  of minimization problems (vertex cover, set cover) and upper-bounds the
  optimum of maximization problems (matching LP with odd-set constraints
  omitted, i.e. the fractional matching bound).

The LP constraint matrices are ``scipy.sparse`` CSR matrices built straight
from the CSR indexes the instances already keep (two nonzeros per edge row
or column, one per set membership), so an LP's memory grows with the
number of nonzeros, not with ``m × n``.

For maximum weight matching an exact combinatorial optimum is available at
moderate sizes through the blossom algorithm
(:func:`repro.baselines.greedy_matching.exact_matching`, which runs
:mod:`repro.baselines.blossom`, a list-based port of NetworkX's
``max_weight_matching``).
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from ..graphs.graph import Graph
from ..setcover.instance import SetCoverInstance

__all__ = [
    "exact_vertex_cover_small",
    "exact_set_cover_small",
    "lp_vertex_cover_bound",
    "lp_set_cover_bound",
    "fractional_matching_bound",
    "exact_max_independent_set_small",
]


def exact_vertex_cover_small(
    graph: Graph, vertex_weights: Sequence[float] | np.ndarray, *, max_vertices: int = 18
) -> tuple[list[int], float]:
    """Exact minimum weight vertex cover by exhaustive search over vertex subsets.

    Only intended for tiny graphs (≤ ``max_vertices`` vertices); the unit
    tests use it to validate the 2-approximation guarantee exactly.
    """
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(f"exact_vertex_cover_small limited to {max_vertices} vertices (got {n})")
    weights = np.asarray(vertex_weights, dtype=np.float64)
    best_cost = float(weights.sum())
    best = list(range(n))
    edge_u, edge_v = graph.edge_u, graph.edge_v
    for bits in range(1 << n):
        mask = np.array([(bits >> v) & 1 for v in range(n)], dtype=bool)
        if graph.num_edges and not np.all(mask[edge_u] | mask[edge_v]):
            continue
        cost = float(weights[mask].sum())
        if cost < best_cost:
            best_cost = cost
            best = [int(v) for v in np.flatnonzero(mask)]
    return best, best_cost


def exact_set_cover_small(
    instance: SetCoverInstance, *, max_sets: int = 16
) -> tuple[list[int], float]:
    """Exact minimum weight set cover by exhaustive search (tiny instances)."""
    n = instance.num_sets
    if n > max_sets:
        raise ValueError(f"exact_set_cover_small limited to {max_sets} sets (got {n})")
    best_cost = np.inf
    best: list[int] = []
    for k in range(0, n + 1):
        for subset in combinations(range(n), k):
            if not instance.is_cover(subset):
                continue
            cost = instance.cover_weight(subset)
            if cost < best_cost:
                best_cost = cost
                best = list(subset)
    return best, float(best_cost)


def exact_max_independent_set_small(graph: Graph, *, max_vertices: int = 18) -> list[int]:
    """Exact maximum independent set by exhaustive search (tiny graphs)."""
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(f"exact_max_independent_set_small limited to {max_vertices} vertices")
    from ..graphs.validation import is_independent_set

    best: list[int] = []
    for k in range(n, 0, -1):
        for subset in combinations(range(n), k):
            if is_independent_set(graph, subset):
                return list(subset)
    return best


def lp_vertex_cover_bound(graph: Graph, vertex_weights: Sequence[float] | np.ndarray) -> float:
    """LP relaxation lower bound on the minimum weight vertex cover.

    ``min Σ w_v x_v  s.t.  x_u + x_v ≥ 1 ∀ edges, 0 ≤ x ≤ 1``.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n, m = graph.num_vertices, graph.num_edges
    weights = np.asarray(vertex_weights, dtype=np.float64)
    if m == 0:
        return 0.0
    # Row e: -x_u - x_v ≤ -1.
    cols = np.column_stack([graph.edge_u, graph.edge_v]).ravel()
    a_ub = csr_matrix((np.full(2 * m, -1.0), cols, np.arange(0, 2 * m + 1, 2)), shape=(m, n))
    b_ub = -np.ones(m)
    res = linprog(weights, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * n, method="highs")
    if not res.success:
        raise RuntimeError(f"vertex cover LP failed: {res.message}")
    return float(res.fun)


def lp_set_cover_bound(instance: SetCoverInstance) -> float:
    """LP relaxation lower bound on the minimum weight set cover."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n, m = instance.num_sets, instance.num_elements
    if m == 0:
        return 0.0
    # Row j: -Σ_{i ∋ j} x_i ≤ -1 (a set lists each element once, so no
    # entry repeats).
    indptr, owners = instance.element_incidence()
    a_ub = csr_matrix((np.full(owners.size, -1.0), owners, indptr), shape=(m, n))
    b_ub = -np.ones(m)
    res = linprog(
        instance.weights, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * n, method="highs"
    )
    if not res.success:
        raise RuntimeError(f"set cover LP failed: {res.message}")
    return float(res.fun)


def fractional_matching_bound(graph: Graph) -> float:
    """Fractional matching LP upper bound on the maximum weight matching.

    ``max Σ w_e x_e  s.t.  Σ_{e ∋ v} x_e ≤ 1 ∀ v, 0 ≤ x ≤ 1`` — at most a
    factor 3/2 above the integral optimum, and an upper bound on it.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n, m = graph.num_vertices, graph.num_edges
    if m == 0:
        return 0.0
    # Row v: Σ_{e ∋ v} x_e ≤ 1.
    indptr, edge_ids = graph.incidence()
    a_ub = csr_matrix((np.ones(edge_ids.size), edge_ids, indptr), shape=(n, m))
    b_ub = np.ones(n)
    res = linprog(-graph.weights, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * m, method="highs")
    if not res.success:
        raise RuntimeError(f"matching LP failed: {res.message}")
    return float(-res.fun)
