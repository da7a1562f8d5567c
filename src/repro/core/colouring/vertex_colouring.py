"""Algorithm 5 — ``(1 + o(1))∆`` vertex colouring in ``O(1)`` MapReduce rounds.

Section 6 of the paper.  The vertex set is partitioned uniformly at random
into ``κ = n^{(c−µ)/2}`` groups.  With high probability each group's induced
subgraph has maximum degree ``(1 + o(1))∆/κ`` (Lemma 6.1) and at most
``13·n^{1+µ}`` edges (Lemma 6.2), so it fits on one machine and can be
coloured greedily with ``∆_i + 1`` colours.  A vertex's final colour is the
pair ``(group, colour within the group)``, giving at most
``κ·(max_i ∆_i + 1) = (1 + o(1))∆`` colours in total (Corollary 6.3,
Theorem 6.4).
"""

from __future__ import annotations

import numpy as np

from ...graphs.graph import Graph
from ...mapreduce.exceptions import MAX_RESAMPLES, AlgorithmFailureError
from ..results import ColouringResult, IterationStats

__all__ = ["mapreduce_vertex_colouring", "greedy_vertex_colouring", "default_num_groups"]

#: Failure threshold of Line 4 of Algorithm 5 (``|E_i| > 13·n^{1+µ}``).
EDGE_FAILURE_MULTIPLIER = 13.0


def default_num_groups(graph: Graph, mu: float) -> int:
    """The paper's group count ``κ = n^{(c−µ)/2}`` (at least 1)."""
    n = graph.num_vertices
    if n <= 1:
        return 1
    c = graph.densification_exponent()
    exponent = max(0.0, (c - mu) / 2.0)
    return max(1, int(round(n**exponent)))


def greedy_vertex_colouring(
    graph: Graph,
    vertices: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> dict[int, int]:
    """Sequential greedy (first-fit) colouring of the induced subgraph on ``vertices``.

    Uses at most ``∆' + 1`` colours where ``∆'`` is the maximum degree of the
    induced subgraph.  Colours are integers starting at 0.
    """
    if vertices is None:
        vertices = np.arange(graph.num_vertices)
    vertices = np.asarray(vertices, dtype=np.int64)
    member_mask = np.zeros(graph.num_vertices, dtype=bool)
    member_mask[vertices] = True
    member = member_mask.tolist()
    if order is None:
        order = vertices
    indptr, neighbours = graph.adjacency()
    bounds = indptr.tolist()
    colours: dict[int, int] = {}
    for v in np.asarray(order, dtype=np.int64).tolist():
        taken = {
            colours[w]
            for w in neighbours[bounds[v] : bounds[v + 1]].tolist()
            if member[w] and w in colours
        }
        colour = 0
        while colour in taken:
            colour += 1
        colours[v] = colour
    return colours


def mapreduce_vertex_colouring(
    graph: Graph,
    mu: float,
    rng: np.random.Generator,
    *,
    num_groups: int | None = None,
) -> ColouringResult:
    """Run Algorithm 5 on ``graph`` with space parameter ``µ``.

    A partition with a group of more than ``13·n^{1+µ}`` edges is redrawn,
    up to :data:`~repro.mapreduce.exceptions.MAX_RESAMPLES` times in a row.

    Parameters
    ----------
    graph:
        The input graph.
    mu:
        Space exponent; each group's subgraph must fit in ``O(n^{1+µ})``
        words.
    rng:
        Randomness source for the random partition.
    num_groups:
        Number of groups ``κ``; defaults to ``n^{(c−µ)/2}``.

    Returns
    -------
    ColouringResult
        A proper colouring whose colours are ``(group, local colour)`` pairs;
        ``iterations`` holds one record per group with the group's edge count
        (``alive``) and the words it occupies on its machine
        (``sample_words``).
    """
    if not 0 <= mu < np.inf:
        raise ValueError(f"mu must be non-negative and finite, got {mu}")
    n = graph.num_vertices
    if n == 0:
        return ColouringResult({}, num_groups=0, algorithm="mapreduce-vertex-colouring")
    kappa = default_num_groups(graph, mu) if num_groups is None else max(1, int(num_groups))
    edge_budget = EDGE_FAILURE_MULTIPLIER * float(n) ** (1.0 + mu)

    attempts = 0
    while True:
        attempts += 1
        group_of = rng.integers(0, kappa, size=n)
        edge_groups_u = group_of[graph.edge_u]
        edge_groups_v = group_of[graph.edge_v]
        internal = edge_groups_u == edge_groups_v
        group_edge_counts = np.bincount(edge_groups_u[internal], minlength=kappa)
        if group_edge_counts.size == 0 or group_edge_counts.max() <= edge_budget:
            break
        if attempts >= MAX_RESAMPLES:
            raise AlgorithmFailureError(
                f"vertex partition failed {attempts} consecutive times"
            )

    colours: dict[int, object] = {}
    iterations: list[IterationStats] = []
    for group in range(kappa):
        members = np.flatnonzero(group_of == group)
        local = greedy_vertex_colouring(graph, vertices=members)
        for v in members.tolist():
            colours[v] = (group, local[v])
        edge_count = int(group_edge_counts[group]) if group < group_edge_counts.size else 0
        iterations.append(
            IterationStats(
                iteration=group + 1,
                alive=edge_count,
                sampled=int(members.size),
                sample_words=int(members.size) + 2 * edge_count,
                selected=len(set(local.values())),
                phase=f"group-{group}",
            )
        )
    return ColouringResult(
        colours=colours,
        num_groups=kappa,
        iterations=iterations,
        algorithm="mapreduce-vertex-colouring",
    )
