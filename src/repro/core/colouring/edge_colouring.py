"""``(1 + o(1))∆`` edge colouring in ``O(1)`` MapReduce rounds (Theorem 6.6).

Remark 6.5 of the paper: the vertex colouring algorithm carries over to edge
colouring almost verbatim — partition the *edges* uniformly at random into
``κ`` groups, and colour each group's subgraph with the Misra–Gries
constructive proof of Vizing's theorem, which uses at most ``∆_i + 1``
colours where ``∆_i`` is the maximum degree of the group's subgraph.  With
``κ = n^{(c−µ)/2}`` the per-group degree is ``(1 + o(1))∆/κ`` w.h.p., so the
pairs ``(group, local colour)`` form a proper edge colouring with
``(1 + o(1))∆`` colours.
"""

from __future__ import annotations

import numpy as np

from ...baselines.misra_gries import misra_gries_edge_colouring
from ...graphs.graph import Graph
from ...mapreduce.exceptions import MAX_RESAMPLES, AlgorithmFailureError
from ..results import ColouringResult, IterationStats
from .vertex_colouring import EDGE_FAILURE_MULTIPLIER, default_num_groups

__all__ = ["mapreduce_edge_colouring"]


def mapreduce_edge_colouring(
    graph: Graph,
    mu: float,
    rng: np.random.Generator,
    *,
    num_groups: int | None = None,
) -> ColouringResult:
    """Randomly partition the edges into ``κ`` groups and colour each with Misra–Gries.

    An oversized group is redrawn, as in the vertex colouring driver.

    Parameters
    ----------
    graph:
        The input graph.
    mu:
        Space exponent; each group must fit in ``O(n^{1+µ})`` words.
    rng:
        Randomness source.
    num_groups:
        Number of groups ``κ`` (defaults to ``n^{(c−µ)/2}``).

    Returns
    -------
    ColouringResult
        A proper edge colouring with ``(group, local colour)`` colours.
    """
    if not 0 <= mu < np.inf:
        raise ValueError(f"mu must be non-negative and finite, got {mu}")
    n, m = graph.num_vertices, graph.num_edges
    if m == 0:
        return ColouringResult({}, num_groups=0, algorithm="mapreduce-edge-colouring")
    kappa = default_num_groups(graph, mu) if num_groups is None else max(1, int(num_groups))
    edge_budget = EDGE_FAILURE_MULTIPLIER * float(max(2, n)) ** (1.0 + mu)

    attempts = 0
    while True:
        attempts += 1
        group_of = rng.integers(0, kappa, size=m)
        counts = np.bincount(group_of, minlength=kappa)
        if counts.max() <= edge_budget:
            break
        if attempts >= MAX_RESAMPLES:
            raise AlgorithmFailureError(f"edge partition failed {attempts} consecutive times")

    colours: dict[int, object] = {}
    iterations: list[IterationStats] = []
    for group in range(kappa):
        members = np.flatnonzero(group_of == group)
        if members.size == 0:
            continue
        local = misra_gries_edge_colouring(graph.subgraph_of_edges(members))
        # ``subgraph_of_edges`` preserves edge order, so local edge id k is
        # the original edge ``members[k]``.
        for local_id, original_id in enumerate(members.tolist()):
            colours[original_id] = (group, local[local_id])
        iterations.append(
            IterationStats(
                iteration=group + 1,
                alive=int(members.size),
                sampled=int(members.size),
                sample_words=3 * int(members.size),
                selected=len(set(local.values())),
                phase=f"group-{group}",
            )
        )
    return ColouringResult(
        colours=colours,
        num_groups=kappa,
        iterations=iterations,
        algorithm="mapreduce-edge-colouring",
    )
