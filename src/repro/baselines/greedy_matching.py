"""Sequential matching baselines.

* :func:`greedy_matching` — sort edges by weight and add greedily; the
  classical sequential 2-approximation for maximum weight matching.
* :func:`exact_matching` — exact maximum weight matching via the blossom
  algorithm (NetworkX); used by the experiment harness to compute true
  approximation ratios on moderate-size graphs.
* :func:`greedy_b_matching` — the natural greedy generalization under vertex
  capacities (also a baseline for Appendix D's algorithm).
* :func:`exact_b_matching_small` — brute force over edge subsets, only for
  tiny graphs, used by the unit tests to validate approximation guarantees
  exactly.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from ..core.results import MatchingResult
from ..graphs.graph import Graph
from ..graphs.validation import is_b_matching

__all__ = [
    "greedy_matching",
    "greedy_b_matching",
    "exact_matching",
    "exact_b_matching_small",
]


def greedy_matching(graph: Graph) -> MatchingResult:
    """Greedy maximum weight matching: scan edges by decreasing weight."""
    order = np.argsort(-graph.weights, kind="stable")
    matched = np.zeros(graph.num_vertices, dtype=bool)
    chosen: list[int] = []
    for e in order:
        e = int(e)
        u, v = graph.edge_endpoints(e)
        if graph.edge_weight(e) <= 0:
            break
        if not matched[u] and not matched[v]:
            matched[u] = True
            matched[v] = True
            chosen.append(e)
    weight = float(graph.weights[np.asarray(chosen, dtype=np.int64)].sum()) if chosen else 0.0
    return MatchingResult(chosen, weight, algorithm="greedy-matching")


def greedy_b_matching(graph: Graph, b: Mapping[int, int] | Sequence[int] | int) -> MatchingResult:
    """Greedy b-matching: scan edges by decreasing weight, respect capacities."""
    if isinstance(b, Mapping):
        capacity = np.array([int(b.get(v, 1)) for v in range(graph.num_vertices)], dtype=np.int64)
    elif np.isscalar(b):
        capacity = np.full(graph.num_vertices, int(b), dtype=np.int64)  # type: ignore[arg-type]
    else:
        capacity = np.asarray(b, dtype=np.int64)
    order = np.argsort(-graph.weights, kind="stable")
    chosen: list[int] = []
    for e in order:
        e = int(e)
        if graph.edge_weight(e) <= 0:
            break
        u, v = graph.edge_endpoints(e)
        if capacity[u] > 0 and capacity[v] > 0:
            capacity[u] -= 1
            capacity[v] -= 1
            chosen.append(e)
    weight = float(graph.weights[np.asarray(chosen, dtype=np.int64)].sum()) if chosen else 0.0
    return MatchingResult(chosen, weight, algorithm="greedy-b-matching")


def exact_matching(graph: Graph) -> MatchingResult:
    """Exact maximum weight matching (blossom algorithm via NetworkX)."""
    import networkx as nx

    g = graph.to_networkx()
    pairs = nx.max_weight_matching(g, maxcardinality=False)
    # Translate vertex pairs back to edge ids.
    edge_lookup: dict[tuple[int, int], int] = {}
    for e in range(graph.num_edges):
        u, v = graph.edge_endpoints(e)
        edge_lookup[(u, v)] = e
        edge_lookup[(v, u)] = e
    chosen = [edge_lookup[(int(a), int(b))] for a, b in pairs]
    weight = float(graph.weights[np.asarray(chosen, dtype=np.int64)].sum()) if chosen else 0.0
    return MatchingResult(sorted(chosen), weight, algorithm="exact-matching")


def exact_b_matching_small(
    graph: Graph, b: Mapping[int, int] | Sequence[int] | int, *, max_edges: int = 18
) -> MatchingResult:
    """Exact maximum weight b-matching by exhaustive search (tiny graphs only)."""
    m = graph.num_edges
    if m > max_edges:
        raise ValueError(
            f"exact_b_matching_small is limited to {max_edges} edges (got {m}); "
            "use a smaller instance"
        )
    best_weight = 0.0
    best: list[int] = []
    edge_ids = list(range(m))
    for k in range(1, m + 1):
        for subset in combinations(edge_ids, k):
            if not is_b_matching(graph, subset, b):
                continue
            weight = float(graph.weights[list(subset)].sum())
            if weight > best_weight:
                best_weight = weight
                best = list(subset)
    return MatchingResult(best, best_weight, algorithm="exact-b-matching-bruteforce")
