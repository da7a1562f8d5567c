"""MapReduce (MPC) drivers for the colouring algorithms (Theorems 6.4 and 6.6).

Each driver runs the corresponding sequential algorithm, then charges its
rounds to :class:`~repro.mapreduce.engine.MPCContext` from the algorithm's
per-group trace (:class:`~repro.core.results.IterationStats`).  The
colouring algorithms use a constant number of rounds regardless of the
input parameters:

1. one parallel round in which every vertex (resp. edge) learns its random
   group and ships its within-group adjacency to the machine responsible for
   that group;
2. one parallel round in which each group machine colours its subgraph
   locally (greedy ``∆_i + 1`` colouring for vertices, Misra–Gries for
   edges) and outputs ``(group, local colour)`` pairs.

A preliminary round checks the failure condition ``|E_i| ≤ 13·n^{1+µ}``
(Lemma 6.2) by aggregating group edge counts.
"""

from __future__ import annotations

import numpy as np

from ...graphs.graph import Graph
from ...mapreduce.engine import MPCContext
from ...mapreduce.metrics import RunMetrics
from ..local_ratio import mapreduce_impl as local_ratio_mpc
from ..results import ColouringResult
from .edge_colouring import mapreduce_edge_colouring
from .vertex_colouring import default_num_groups, mapreduce_vertex_colouring

__all__ = ["mpc_vertex_colouring", "mpc_edge_colouring"]


def _colour_context(graph: Graph, mu: float, kappa: int, algorithm: str) -> MPCContext:
    """One machine per group, each with ``SPACE_SLACK · n^{1+µ}`` words.

    The slack of 16 covers Lemma 6.2's group-size bound of 13·n^{1+µ}.
    """
    n = max(2, graph.num_vertices)
    memory = int(np.ceil(local_ratio_mpc.SPACE_SLACK * n ** (1.0 + mu)))
    return MPCContext(max(kappa, 1), memory, algorithm=algorithm)


def mpc_vertex_colouring(
    graph: Graph,
    mu: float,
    rng: np.random.Generator,
    *,
    num_groups: int | None = None,
) -> tuple[ColouringResult, RunMetrics]:
    """Theorem 6.4: ``(1 + o(1))∆`` vertex colouring in ``O(1)`` rounds."""
    kappa = default_num_groups(graph, mu) if num_groups is None else max(1, int(num_groups))
    result = mapreduce_vertex_colouring(graph, mu, rng, num_groups=kappa)
    ctx = _colour_context(graph, mu, result.num_groups, "mpc-vertex-colouring")
    group_loads = np.array([stats.sample_words for stats in result.iterations], dtype=np.int64)
    ctx.parallel_round(
        "assign groups and check |E_i| ≤ 13·n^(1+µ)",
        phase="partition",
        machine_loads=group_loads,
        words_communicated=graph.num_vertices,
    )
    ctx.parallel_round(
        "ship within-group adjacency lists N(v) ∩ V_i to group machines",
        phase="partition",
        machine_loads=group_loads,
        words_communicated=int(group_loads.sum()),
    )
    ctx.parallel_round(
        "greedy (∆_i + 1)-colouring inside each group; emit (i, c_i(v))",
        phase="colour",
        machine_loads=group_loads,
        words_communicated=graph.num_vertices,
    )
    metrics = ctx.finish(
        n=graph.num_vertices,
        m=graph.num_edges,
        mu=mu,
        kappa=result.num_groups,
        max_degree=graph.max_degree(),
        colours_used=result.num_colours,
    )
    return result, metrics


def mpc_edge_colouring(
    graph: Graph,
    mu: float,
    rng: np.random.Generator,
    *,
    num_groups: int | None = None,
    local_algorithm: str = "misra-gries",
) -> tuple[ColouringResult, RunMetrics]:
    """Theorem 6.6: ``(1 + o(1))∆`` edge colouring in ``O(1)`` rounds."""
    kappa = default_num_groups(graph, mu) if num_groups is None else max(1, int(num_groups))
    result = mapreduce_edge_colouring(
        graph, mu, rng, num_groups=kappa, local_algorithm=local_algorithm
    )
    ctx = _colour_context(graph, mu, result.num_groups, "mpc-edge-colouring")
    group_loads = np.array([stats.sample_words for stats in result.iterations], dtype=np.int64)
    ctx.parallel_round(
        "assign edge groups and check group sizes",
        phase="partition",
        machine_loads=group_loads,
        words_communicated=graph.num_edges,
    )
    ctx.parallel_round(
        "ship group subgraphs to group machines",
        phase="partition",
        machine_loads=group_loads,
        words_communicated=int(group_loads.sum()),
    )
    ctx.parallel_round(
        f"local {local_algorithm} colouring inside each group; emit (i, c_i(e))",
        phase="colour",
        machine_loads=group_loads,
        words_communicated=graph.num_edges,
    )
    metrics = ctx.finish(
        n=graph.num_vertices,
        m=graph.num_edges,
        mu=mu,
        kappa=result.num_groups,
        max_degree=graph.max_degree(),
        colours_used=result.num_colours,
    )
    return result, metrics
