"""Distributed placement of a graph onto the machines of an MPC run.

In the MRC model the edge set is partitioned across machines, and each
vertex (with its adjacency list) is stored on a randomly chosen machine
(Theorems 2.4, 3.3, 5.6).  :class:`DistributedGraph` captures this placement
and exposes the per-machine *word loads* that the MPC drivers declare to
:class:`~repro.mapreduce.engine.MPCContext`: the drivers perform the actual
machine-local computation centrally (vectorized NumPy over the whole edge
set), but the load numbers are exactly what a faithful distributed
execution would store.

Word accounting convention: an edge costs 3 words (two endpoints plus a
weight) and an adjacency-list entry costs 1 word.
"""

from __future__ import annotations

import numpy as np

from ..mapreduce.partition import balanced_partition, random_partition
from .graph import Graph

__all__ = ["DistributedGraph", "EDGE_WORDS"]

#: Words charged for storing one edge (two endpoints and one weight).
EDGE_WORDS = 3


class DistributedGraph:
    """A :class:`Graph` partitioned over ``num_machines`` machines.

    Edges go to machines in contiguous balanced blocks (the paper's
    "assigned arbitrarily ... with ``n^{1+µ}`` per machine"); vertices, with
    their adjacency lists, go to machines chosen uniformly at random from
    ``rng``.  The loads are those of the whole graph, which the drivers
    declare for the rounds that hold the input.

    Parameters
    ----------
    graph:
        The graph to distribute.
    num_machines:
        Number of worker machines.
    rng:
        Randomness source for the random vertex placement.
    """

    def __init__(self, graph: Graph, num_machines: int, rng: np.random.Generator):
        self.graph = graph
        self.num_machines = int(num_machines)
        self.edge_machine = balanced_partition(graph.num_edges, self.num_machines)
        # Vertices (and their adjacency lists) are placed uniformly at random,
        # exactly as in the paper's MapReduce implementations.
        self.vertex_machine = random_partition(graph.num_vertices, self.num_machines, rng)

    # ------------------------------------------------------------------ #
    # Load accounting
    # ------------------------------------------------------------------ #
    def edge_loads(self) -> np.ndarray:
        """Words of edge storage per machine."""
        counts = np.bincount(self.edge_machine, minlength=self.num_machines)
        return counts * EDGE_WORDS

    def adjacency_loads(self) -> np.ndarray:
        """Words of adjacency-list storage per machine.

        Each edge ``{u, v}`` contributes one word to the machine hosting
        ``u`` and one word to the machine hosting ``v``.
        """
        loads = np.bincount(self.vertex_machine[self.graph.edge_u], minlength=self.num_machines)
        return loads + np.bincount(self.vertex_machine[self.graph.edge_v], minlength=self.num_machines)

    def total_loads(self) -> np.ndarray:
        """Edge storage plus adjacency storage per machine."""
        return self.edge_loads() + self.adjacency_loads()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedGraph(n={self.graph.num_vertices}, m={self.graph.num_edges}, "
            f"machines={self.num_machines})"
        )
