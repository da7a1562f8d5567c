"""Algorithm 4 — randomized local ratio 2-approximation for maximum weight matching.

Section 5 of the paper.  Per iteration, every vertex samples roughly
``η / |E_i|`` of its alive incident edges (or all of them once few edges
remain); the union of the samples is sent to a central machine, which walks
the vertices and, for each, selects the heaviest sampled incident edge that
still has positive residual weight, performs the local ratio weight
reduction, and pushes the edge on a stack.  Edges whose residual weight
becomes non-positive die; Lemmas 5.3/5.4 show the maximum alive degree drops
by ``n^{µ/4}`` per iteration, giving ``O(c/µ)`` iterations.  Unwinding the
stack greedily yields a 2-approximate maximum weight matching
(Theorem 5.5/5.6).

With ``η = n`` (i.e. ``µ = 0``, linear space per machine) the same algorithm
terminates in ``O(log n)`` iterations (Appendix C, Theorem C.2); this is the
``mu0`` configuration exercised by the `fig1-matching-mu0` experiment.

The weight reductions are maintained through per-vertex potentials ``φ(v)``
(the sum of reductions applied to edges incident to ``v``), exactly as in the
MapReduce implementation of Theorem 5.6: the residual weight of an un-pushed
edge ``{u, v}`` is ``w_e − φ(u) − φ(v)``.
"""

from __future__ import annotations

import numpy as np

from ...graphs.graph import Graph
from ...kernels import central_matching_pass
from ...mapreduce.exceptions import MAX_RESAMPLES, AlgorithmFailureError
from ..results import IterationStats, MatchingResult
from .sequential import unwind_matching_stack

__all__ = ["randomized_local_ratio_matching", "default_eta_for_graph"]

#: "Take everything" threshold from Line 6 of Algorithm 4 (``|E_i| < 4η``).
FULL_SAMPLE_MULTIPLIER = 4.0
#: Failure threshold from Line 10 of Algorithm 4 (``Σ_v |E'_v| > 8η``).
FAILURE_MULTIPLIER = 8.0


def default_eta_for_graph(graph: Graph, mu: float) -> int:
    """The paper's per-machine budget ``η = n^{1+µ}`` for a graph instance."""
    n = max(2, graph.num_vertices)
    return max(1, int(round(n ** (1.0 + mu))))


def randomized_local_ratio_matching(
    graph: Graph,
    eta: int,
    rng: np.random.Generator,
    *,
    max_iterations: int | None = None,
) -> MatchingResult:
    """Run Algorithm 4 on ``graph`` with per-round sample budget ``η``.

    A sample with ``Σ_v |E'_v| > 8η`` is redrawn, as in Algorithm 1.

    Parameters
    ----------
    graph:
        Weighted graph; weights must be positive for the guarantee to be
        meaningful (non-positive-weight edges are never selected).
    eta:
        Sample budget ``η`` (``n^{1+µ}`` in the paper, ``n`` for the
        linear-space variant of Appendix C).
    rng:
        Randomness source.
    max_iterations:
        Safety cap (defaults to ``10 + 20·⌈log2(m+2)⌉``, far above both the
        ``O(c/µ)`` and ``O(log n)`` bounds).

    Returns
    -------
    MatchingResult
        Edge ids of a 2-approximate maximum weight matching plus the
        per-iteration trace (alive edge count, sampled incidences, words sent
        to the central machine, edges pushed).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    n, m = graph.num_vertices, graph.num_edges
    if max_iterations is None:
        max_iterations = 10 + 20 * int(np.ceil(np.log2(m + 2)))

    edge_u = graph.edge_u
    edge_v = graph.edge_v
    weights = graph.weights
    phi = np.zeros(n, dtype=np.float64)
    on_stack = np.zeros(m, dtype=bool)
    alive = weights > 0  # E_i
    stack: list[int] = []
    iterations: list[IterationStats] = []
    failed_attempts = 0

    iteration = 0
    while alive.any():
        iteration += 1
        if iteration > max_iterations:
            raise AlgorithmFailureError(
                f"Algorithm 4 did not converge within {max_iterations} iterations"
            )
        alive_ids = np.flatnonzero(alive)
        num_alive = alive_ids.size
        full_sample = num_alive < FULL_SAMPLE_MULTIPLIER * eta

        attempts = 0
        while True:
            attempts += 1
            if full_sample:
                # E'_v = all alive edges incident to v: every alive edge is
                # present in both endpoints' samples.
                sampled_u = np.ones(num_alive, dtype=bool)
                sampled_v = np.ones(num_alive, dtype=bool)
            else:
                p = min(1.0, eta / num_alive)
                sampled_u = rng.random(num_alive) < p
                sampled_v = rng.random(num_alive) < p
            total_sampled = int(sampled_u.sum() + sampled_v.sum())
            if full_sample or total_sampled <= FAILURE_MULTIPLIER * eta:
                break
            failed_attempts += 1
            if attempts >= MAX_RESAMPLES:
                raise AlgorithmFailureError(
                    f"sampling failed {attempts} consecutive times (|E_i| = {num_alive})"
                )

        # Group the sampled (edge, vertex) incidences by vertex: E'_v.
        sample_edges = np.concatenate([alive_ids[sampled_u], alive_ids[sampled_v]])
        sample_hosts = np.concatenate([edge_u[alive_ids[sampled_u]], edge_v[alive_ids[sampled_v]]])
        order = np.argsort(sample_hosts, kind="stable")
        sample_edges = sample_edges[order]
        sample_hosts = sample_hosts[order]
        boundaries = np.searchsorted(sample_hosts, np.arange(n + 1))

        # Central machine: walk the vertices, pick the heaviest sampled edge
        # with positive residual weight, reduce, push.
        pushed_this_round = central_matching_pass(
            edge_u, edge_v, weights, phi, on_stack, sample_edges, boundaries, stack
        )

        iterations.append(
            IterationStats(
                iteration=iteration,
                alive=int(num_alive),
                sampled=int(total_sampled if not full_sample else 2 * num_alive),
                sample_words=3 * int(total_sampled if not full_sample else 2 * num_alive),
                selected=pushed_this_round,
            )
        )

        # E_{i+1}: alive edges with positive residual weight that were not pushed.
        residual_all = weights - phi[edge_u] - phi[edge_v]
        alive = alive & ~on_stack & (residual_all > 1e-12)
        if full_sample:
            # After a full-sample pass every edge incident to a processed
            # vertex has been reduced by at least the maximum residual at that
            # vertex, so nothing survives (Lemma 2.2 analogue); exit cleanly.
            break

    matching = unwind_matching_stack(graph, stack)
    weight = float(weights[np.asarray(matching, dtype=np.int64)].sum()) if matching else 0.0
    return MatchingResult(
        edge_ids=matching,
        weight=weight,
        iterations=iterations,
        stack_size=len(stack),
        failed_attempts=failed_attempts,
        algorithm="randomized-local-ratio-matching",
    )
