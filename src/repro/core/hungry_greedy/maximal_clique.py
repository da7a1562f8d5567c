"""Appendix B — hungry-greedy maximal clique.

A maximal clique in ``G`` is a maximal independent set in the complement
graph, but the complement cannot be materialised in the MapReduce model
(``Ω(n²)`` space).  The paper's fix is a *relabelling scheme*: the central
machine keeps the set of still-active vertices relabelled to ``[k]``, so any
vertex can compute its complement neighbourhood among the active vertices as
``[k] \\ N`` from its (sparse) adjacency list — only ``O(n^{1+µ})`` words of
the complement are ever needed per round.

This module implements the resulting algorithm directly on the primal graph:
it maintains the clique ``C`` and the candidate set
``P = {v ∉ C : v adjacent to every vertex of C}``; the *complement residual
degree* of ``v ∈ P`` is ``|P| − 1 − |N_G(v) ∩ P|``, the number of candidates
that adding ``v`` would disqualify.  The hungry-greedy phases then mirror
Algorithm 2: sample groups of candidates with large complement degree and
add one per group, shrinking ``P`` geometrically; finish greedily once ``P``
is small (Corollary B.1: ``O(1/µ)`` rounds).
"""

from __future__ import annotations

import numpy as np

from ...graphs.graph import Graph
from ...kernels.csr import gather_rows
from ..results import CliqueResult, IterationStats

__all__ = ["hungry_greedy_maximal_clique", "sequential_greedy_maximal_clique"]


class _CliqueState:
    """Maintains the clique, the candidate set and per-vertex counts incrementally."""

    def __init__(self, graph: Graph):
        self.graph = graph
        n = graph.num_vertices
        self.in_clique = np.zeros(n, dtype=bool)
        self.candidate = np.ones(n, dtype=bool)
        # deg_in_p[v] = |N_G(v) ∩ P| for candidates (unused for non-candidates).
        self.deg_in_p = graph.degrees().astype(np.int64).copy()
        self.num_candidates = n

    def complement_degrees(self) -> np.ndarray:
        """``|P| − 1 − |N_G(v) ∩ P|`` for candidates, −1 for non-candidates."""
        out = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        cand = np.flatnonzero(self.candidate)
        if cand.size:
            out[cand] = self.num_candidates - 1 - self.deg_in_p[cand]
        return out

    def add(self, vertex: int) -> None:
        """Add ``vertex`` to the clique and restrict ``P`` to its neighbours."""
        v = int(vertex)
        if not self.candidate[v]:
            raise ValueError(f"vertex {v} is not a valid clique candidate")
        self.in_clique[v] = True
        self.candidate[v] = False
        self.num_candidates -= 1
        n = self.graph.num_vertices
        indptr, indices = self.graph.adjacency()
        adjacent = np.zeros(n, dtype=bool)
        adjacent[indices[indptr[v] : indptr[v + 1]]] = True
        removed = np.flatnonzero(self.candidate & ~adjacent)
        self.candidate[removed] = False
        self.num_candidates -= removed.size
        # Candidates lose one candidate-neighbour per adjacent removed vertex (or v).
        flat, _ = gather_rows(indptr, indices, np.append(removed, v))
        self.deg_in_p -= np.bincount(flat[self.candidate[flat]], minlength=n)

    def candidates(self) -> np.ndarray:
        return np.flatnonzero(self.candidate)

    def clique(self) -> list[int]:
        return [int(v) for v in np.flatnonzero(self.in_clique)]


def sequential_greedy_maximal_clique(
    graph: Graph, order: np.ndarray | None = None
) -> list[int]:
    """Sequential greedy maximal clique: scan vertices, add whenever still adjacent to all chosen."""
    n = graph.num_vertices
    order = np.arange(n) if order is None else np.asarray(order, dtype=np.int64)
    clique: list[int] = []
    clique_set: set[int] = set()
    for v in order:
        v = int(v)
        neighbours = set(int(x) for x in graph.neighbors(v))
        if clique_set <= neighbours:
            clique.append(v)
            clique_set.add(v)
    return clique


def hungry_greedy_maximal_clique(
    graph: Graph,
    mu: float,
    rng: np.random.Generator,
) -> CliqueResult:
    """Run the hungry-greedy maximal clique algorithm with space parameter ``µ``.

    Parameters
    ----------
    graph:
        The input graph.
    mu:
        Space exponent; groups have ``n^{µ/2}`` vertices, the phase step is
        ``α = µ/2``, and the candidate set is finished on one machine once
        it is small.
    rng:
        Randomness source.

    Returns
    -------
    CliqueResult
        A maximal clique of ``graph`` and the per-sweep trace (``alive`` is
        the number of *heavy* candidates — those whose insertion would
        disqualify many other candidates).
    """
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    n = graph.num_vertices
    if n == 0:
        return CliqueResult([], algorithm="hungry-greedy-maximal-clique")
    alpha = min(max(mu / 2.0, 1e-9), 1.0)
    num_phases = max(1, int(np.ceil(max(0.0, 1.0 - mu) / alpha)))
    group_size = max(1, int(round(n ** (mu / 2.0))))

    state = _CliqueState(graph)
    iterations: list[IterationStats] = []
    sweep = 0

    for phase in range(1, num_phases + 1):
        heavy_threshold = max(1.0, n ** (1.0 - phase * alpha))
        heavy_stop = max(1.0, n ** (phase * alpha))
        while True:
            comp_deg = state.complement_degrees()
            heavy = np.flatnonzero(comp_deg >= heavy_threshold)
            if heavy.size < heavy_stop:
                break
            sweep += 1
            num_groups = max(1, int(round(n ** (phase * alpha))))
            selected = 0
            sampled_total = 0
            sample_words = 0
            for _ in range(num_groups):
                comp_deg = state.complement_degrees()
                heavy_now = np.flatnonzero(comp_deg >= heavy_threshold)
                if heavy_now.size == 0:
                    break
                group = rng.choice(heavy_now, size=min(group_size, heavy_now.size), replace=False)
                sampled_total += int(group.size)
                # Shipped to the central machine: each sampled vertex's
                # complement neighbourhood among the active vertices, encoded
                # via the relabelling scheme (whichever of N∩P or its
                # complement is smaller — the vertex knows both thanks to σ
                # and k).
                per_vertex = np.minimum(state.deg_in_p[group], comp_deg[group])
                sample_words += int(per_vertex.sum()) + int(group.size)
                eligible = group[comp_deg[group] >= heavy_threshold]
                # Re-check after possible earlier insertions in this sweep.
                eligible = eligible[state.candidate[eligible]]
                if eligible.size:
                    state.add(int(eligible[0]))
                    selected += 1
            iterations.append(
                IterationStats(
                    iteration=sweep,
                    alive=int(heavy.size),
                    sampled=sampled_total,
                    sample_words=sample_words,
                    selected=selected,
                    phase=f"phase-{phase}",
                )
            )

    # Finish on one machine: greedily extend the clique with the remaining
    # candidates (every candidate is adjacent to all of C by construction).
    remaining = state.candidates()
    if remaining.size:
        sweep += 1
        final_comp = state.complement_degrees()
        words = int(
            np.minimum(state.deg_in_p[remaining], final_comp[remaining]).sum()
        ) + int(remaining.size)
        added = 0
        while True:
            cand = state.candidates()
            if cand.size == 0:
                break
            state.add(int(cand[0]))
            added += 1
        iterations.append(
            IterationStats(
                iteration=sweep,
                alive=int(remaining.size),
                sampled=int(remaining.size),
                sample_words=words,
                selected=added,
                phase="final",
            )
        )

    return CliqueResult(
        vertices=state.clique(),
        iterations=iterations,
        algorithm="hungry-greedy-maximal-clique",
    )
