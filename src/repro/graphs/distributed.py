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
    ``rng``.

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
    def edge_loads(self, alive_edges: np.ndarray | None = None) -> np.ndarray:
        """Words of edge storage per machine, optionally restricted to a boolean mask."""
        if alive_edges is None:
            machines = self.edge_machine
        else:
            mask = np.asarray(alive_edges)
            if mask.dtype != bool:
                full = np.zeros(self.graph.num_edges, dtype=bool)
                full[mask.astype(np.int64)] = True
                mask = full
            machines = self.edge_machine[mask]
        counts = np.bincount(machines, minlength=self.num_machines)
        return counts * EDGE_WORDS

    def adjacency_loads(self, alive_edges: np.ndarray | None = None) -> np.ndarray:
        """Words of adjacency-list storage per machine.

        Each alive edge ``{u, v}`` contributes one word to the machine
        hosting ``u`` and one word to the machine hosting ``v``.
        """
        if alive_edges is None:
            mask = np.ones(self.graph.num_edges, dtype=bool)
        else:
            mask = np.asarray(alive_edges)
            if mask.dtype != bool:
                full = np.zeros(self.graph.num_edges, dtype=bool)
                full[mask.astype(np.int64)] = True
                mask = full
        loads = np.zeros(self.num_machines, dtype=np.int64)
        u_hosts = self.vertex_machine[self.graph.edge_u[mask]]
        v_hosts = self.vertex_machine[self.graph.edge_v[mask]]
        if u_hosts.size:
            loads += np.bincount(u_hosts, minlength=self.num_machines)
            loads += np.bincount(v_hosts, minlength=self.num_machines)
        return loads

    def total_loads(self, alive_edges: np.ndarray | None = None) -> np.ndarray:
        """Edge storage plus adjacency storage per machine."""
        return self.edge_loads(alive_edges) + self.adjacency_loads(alive_edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedGraph(n={self.graph.num_vertices}, m={self.graph.num_edges}, "
            f"machines={self.num_machines})"
        )
