"""Sequential matching baselines.

* :func:`greedy_matching` — sort edges by weight and add greedily; the
  classical sequential 2-approximation for maximum weight matching.
* :func:`exact_matching` — exact maximum weight matching via the blossom
  algorithm (:mod:`repro.baselines.blossom`, a list-based port of
  NetworkX's ``max_weight_matching``); used by the experiment harness to
  compute true approximation ratios on moderate-size graphs.  Figure 1's
  exact column records blossom's decisions, so the port makes NetworkX's:
  the same pairs in the same order, hence the same weight bits.
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
from .blossom import max_weight_matching

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
    """Exact maximum weight matching (the blossom algorithm)."""
    edges = list(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
    pairs = max_weight_matching(graph.num_vertices, edges, graph.weights.tolist())
    # Translate vertex pairs back to edge ids (edges are stored with u < v).
    edge_of = {pair: e for e, pair in enumerate(edges)}
    chosen = [edge_of[(a, b) if a < b else (b, a)] for a, b in pairs]
    # Sum in blossom's pair order, not sorted: the order fixes the float's last bits.
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
