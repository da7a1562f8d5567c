"""Sequential local ratio algorithms (the paper's building blocks).

These are the classical algorithms the randomized MapReduce variants
instantiate:

* **Weighted set cover** — Bar-Yehuda & Even's local ratio method
  (Theorem 2.1): repeatedly pick an element whose containing sets all have
  positive residual weight, subtract the minimum residual weight of those
  sets from each of them, and move every set that reaches zero into the
  cover.  ``f``-approximation, where ``f`` is the maximum element frequency.

* **Weighted vertex cover** — the ``f = 2`` special case: the set cover
  algorithm run on :meth:`SetCoverInstance.from_vertex_cover`, whose sets
  are the vertices and whose elements are the edges.

* **Maximum weight matching** — the Paz–Schwartzman local ratio method
  (Theorem 5.1): pick a positive-weight edge, subtract its weight from
  itself and all incident edges, push it on a stack; at the end unwind the
  stack adding edges greedily.  2-approximation.

* **Maximum weight b-matching** — the ε-adjusted variant of Appendix D:
  the selected edge's weight is subtracted fully from itself and divided by
  the endpoint capacities for incident edges; an edge is discarded once its
  weight drops below ``(1+ε)`` times the accumulated reductions.
  ``(3 − 2/max(2, b) + 2ε)``-approximation.

Each function accepts an explicit processing *order* so the randomized
variants can reuse the identical weight-reduction code with the order
induced by their random samples — this is exactly the property ("elements
can be processed in a fairly arbitrary order") that the paper's randomized
local ratio technique exploits.

The weight-reduction loops themselves live in :mod:`repro.kernels`, so
these functions are thin drivers around instance/graph state.  The set
cover reduction (which vertex cover shares) is a batched NumPy kernel,
byte-identical to the pure-Python loop retained in
:mod:`repro.kernels.reference` (golden tests enforce this); the matching
and b-matching reductions and the stack unwinds are the plain loops.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ...graphs.graph import Graph
from ...kernels import (
    b_matching_reduction,
    capacity_array,
    matching_reduction,
    set_cover_reduction,
    unwind_b_matching,
    unwind_matching,
)
from ...setcover.instance import SetCoverInstance
from ..results import MatchingResult, SetCoverResult

__all__ = [
    "local_ratio_set_cover",
    "local_ratio_vertex_cover",
    "local_ratio_matching",
    "local_ratio_b_matching",
    "unwind_matching_stack",
    "unwind_b_matching_stack",
]


# --------------------------------------------------------------------------- #
# Weighted set cover (Theorem 2.1)
# --------------------------------------------------------------------------- #
def local_ratio_set_cover(
    instance: SetCoverInstance,
    *,
    order: Sequence[int] | np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> SetCoverResult:
    """Bar-Yehuda–Even local ratio algorithm for weighted set cover.

    Parameters
    ----------
    instance:
        The weighted set cover instance.
    order:
        Order in which to consider elements.  Defaults to ``0..m-1``; pass a
        permutation to exercise the order-invariance of the guarantee, or a
        subset to run the *partial* algorithm used by the randomized variant
        (elements outside the order are simply never selected).
    rng:
        If given and ``order`` is ``None``, a uniformly random order is used.

    Returns
    -------
    SetCoverResult
        The chosen set ids (all sets whose residual weight reached zero) and
        their total original weight.  When ``order`` covers every element the
        result is a feasible cover and an ``f``-approximation.
    """
    m = instance.num_elements
    if order is None:
        order = np.arange(m) if rng is None else rng.permutation(m)
    elem_indptr, elem_indices = instance.element_incidence()
    set_indptr, set_indices = instance.set_incidence()
    residual = instance.weights.astype(np.float64).copy()
    chosen: list[int] = []
    in_cover = np.zeros(instance.num_sets, dtype=bool)
    covered = np.zeros(m, dtype=bool)
    set_cover_reduction(
        elem_indptr,
        elem_indices,
        set_indptr,
        set_indices,
        residual,
        covered,
        in_cover,
        np.asarray(order, dtype=np.int64),
        chosen,
    )
    weight = instance.cover_weight(chosen)
    return SetCoverResult(chosen, weight, algorithm="local-ratio-sequential")


# --------------------------------------------------------------------------- #
# Weighted vertex cover (f = 2 special case)
# --------------------------------------------------------------------------- #
def local_ratio_vertex_cover(
    graph: Graph,
    vertex_weights: Sequence[float] | np.ndarray,
    *,
    order: Sequence[int] | np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> SetCoverResult:
    """Local ratio 2-approximation for weighted vertex cover.

    :func:`local_ratio_set_cover` on the ``f = 2`` encoding: elements are
    edges, sets are vertices, and ``order`` is an edge order.  The weights
    must be positive and finite, one per vertex (:class:`ValueError`
    otherwise).
    """
    instance = SetCoverInstance.from_vertex_cover(graph, vertex_weights)
    result = local_ratio_set_cover(instance, order=order, rng=rng)
    chosen = result.chosen_sets
    # Summed in chosen order, not ``cover_weight``'s id order: the float bits depend on it.
    result.weight = float(instance.weights[chosen].sum()) if chosen else 0.0
    result.algorithm = "local-ratio-vertex-cover-sequential"
    return result


# --------------------------------------------------------------------------- #
# Maximum weight matching (Theorem 5.1)
# --------------------------------------------------------------------------- #
def unwind_matching_stack(graph: Graph, stack: Sequence[int]) -> list[int]:
    """Unwind a local ratio stack, greedily adding vertex-disjoint edges (LIFO)."""
    return unwind_matching(graph.edge_u, graph.edge_v, graph.num_vertices, stack)


def local_ratio_matching(
    graph: Graph,
    *,
    order: Sequence[int] | np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> MatchingResult:
    """Paz–Schwartzman local ratio 2-approximation for maximum weight matching.

    ``order`` is the order in which edges are *considered*; an edge is
    selected only if its residual weight is still positive when reached.
    """
    m = graph.num_edges
    if order is None:
        order = np.arange(m) if rng is None else rng.permutation(m)
    # phi[v] = total weight reduction applied to edges incident to v.
    phi = np.zeros(graph.num_vertices, dtype=np.float64)
    stack: list[int] = []
    matching_reduction(
        graph.edge_u,
        graph.edge_v,
        graph.weights,
        phi,
        np.asarray(order, dtype=np.int64),
        stack,
    )
    matching = unwind_matching_stack(graph, stack)
    weight = float(graph.weights[np.asarray(matching, dtype=np.int64)].sum()) if matching else 0.0
    return MatchingResult(
        matching, weight, stack_size=len(stack), algorithm="local-ratio-matching-sequential"
    )


# --------------------------------------------------------------------------- #
# Maximum weight b-matching (Appendix D)
# --------------------------------------------------------------------------- #
def unwind_b_matching_stack(
    graph: Graph, stack: Sequence[int], capacities: np.ndarray
) -> list[int]:
    """Unwind a b-matching stack, adding edges while both endpoints have capacity."""
    return unwind_b_matching(graph.edge_u, graph.edge_v, stack, capacities)


def local_ratio_b_matching(
    graph: Graph,
    b: Mapping[int, int] | Sequence[int] | int,
    *,
    epsilon: float = 0.1,
    order: Sequence[int] | np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> MatchingResult:
    """ε-adjusted local ratio algorithm for maximum weight b-matching.

    Follows Appendix D: selecting edge ``e = (u, v)`` of residual weight
    ``w`` reduces incident edges at ``u`` by ``w / b(u)`` and at ``v`` by
    ``w / b(v)``; an edge is treated as dead once its weight is at most
    ``(1 + ε)`` times the accumulated incident reductions.  Unwinding the
    stack greedily yields a ``(3 − 2/max(2, b) + 2ε)``-approximation.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    capacities = capacity_array(graph.num_vertices, b)
    if np.any(capacities < 1):
        raise ValueError("all capacities must be at least 1")
    m = graph.num_edges
    if order is None:
        order = np.arange(m) if rng is None else rng.permutation(m)
    phi = np.zeros(graph.num_vertices, dtype=np.float64)
    stack: list[int] = []
    b_matching_reduction(
        graph.edge_u,
        graph.edge_v,
        graph.weights,
        capacities,
        float(epsilon),
        phi,
        np.asarray(order, dtype=np.int64),
        stack,
    )
    chosen = unwind_b_matching_stack(graph, stack, capacities)
    weight = float(graph.weights[np.asarray(chosen, dtype=np.int64)].sum()) if chosen else 0.0
    return MatchingResult(
        chosen, weight, stack_size=len(stack), algorithm="local-ratio-b-matching-sequential"
    )
