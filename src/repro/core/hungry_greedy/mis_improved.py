"""Algorithm 6 — improved hungry-greedy maximal independent set (``O(c/µ)`` rounds).

Appendix A of the paper.  Instead of handling one degree class at a time
(Algorithm 2), every iteration buckets the still-active vertices into
``1/α`` degree classes ``V_{k,i}`` (``α = µ/8``), samples ``n^{(i+1)α}``
groups of ``n^{µ/2}`` vertices from each class, and adds one
still-heavy-enough vertex per group.  Lemma A.2 shows each iteration shrinks
the number of alive edges by a factor ``n^{µ/8}/2``, so after ``O(c/µ)``
iterations fewer than ``n^{1+µ}`` edges remain and the algorithm finishes on
a single machine (Theorem A.3).
"""

from __future__ import annotations

import numpy as np

from ...graphs.graph import Graph
from ..results import IndependentSetResult, IterationStats
from ...mapreduce.exceptions import AlgorithmFailureError
from .mis import sequential_greedy_mis
from .state import MISState

__all__ = ["hungry_greedy_mis_improved"]


def hungry_greedy_mis_improved(
    graph: Graph,
    mu: float,
    rng: np.random.Generator,
    *,
    max_iterations: int | None = None,
) -> IndependentSetResult:
    """Run Algorithm 6 on ``graph`` with space parameter ``µ``.

    Parameters
    ----------
    graph:
        The input graph.
    mu:
        Space exponent: machines (and therefore the final single-machine
        step) hold ``O(n^{1+µ})`` words; the degree-class step is
        ``α = µ/8``, as in the paper's analysis.
    rng:
        Randomness source.
    max_iterations:
        Safety cap on the number of outer iterations (defaults to
        ``10 + 20·⌈log2(m+2)⌉``).

    Returns
    -------
    IndependentSetResult
        The maximal independent set and a per-iteration trace whose
        ``alive`` field is the number of alive edges ``|E_k|`` (the quantity
        Lemma A.2 shows decays geometrically).
    """
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    n = graph.num_vertices
    if n == 0:
        return IndependentSetResult([], algorithm="hungry-greedy-mis-improved")
    m = graph.num_edges
    alpha = min(max(mu / 8.0, 1e-9), 1.0)
    num_classes = max(1, int(np.ceil(1.0 / alpha)))
    group_size = max(1, int(round(n ** (mu / 2.0))))
    edge_budget = max(1.0, float(n) ** (1.0 + mu))
    if max_iterations is None:
        max_iterations = 10 + 20 * int(np.ceil(np.log2(m + 2)))

    state = MISState(graph)
    # Line 2: isolated vertices join I immediately.
    for v in np.flatnonzero(graph.degrees() == 0):
        state.add(int(v))

    iterations: list[IterationStats] = []
    k = 0
    while state.alive_edge_count() >= edge_budget:
        k += 1
        if k > max_iterations:
            raise AlgorithmFailureError(
                f"Algorithm 6 did not converge within {max_iterations} iterations"
            )
        alive_edges = state.alive_edge_count()
        selected = 0
        sampled_total = 0
        sample_words = 0
        # Degree classes V_{k,i} = {v : n^{1-iα} ≤ d_I(v) < n^{1-(i-1)α}}.
        for i in range(1, num_classes + 1):
            lower = n ** (1.0 - i * alpha)
            upper = n ** (1.0 - (i - 1) * alpha)
            selection_threshold = n ** (1.0 - (i + 1) * alpha)
            members = np.flatnonzero((state.degrees >= lower) & (state.degrees < upper))
            if members.size == 0:
                continue
            num_groups = max(1, int(round(n ** ((i + 1) * alpha))))
            # Only ``state.add`` blocks vertices, so the candidates change
            # only after an insertion.  Drawing positions and indexing the
            # candidates with them takes the same draws as choosing from the
            # candidate array itself; degrees are below 2^53, so comparing
            # them as Python ints with the float threshold is exact.
            candidates = members[~state.blocked[members]]
            for _ in range(num_groups):
                if candidates.size == 0:
                    break
                positions = rng.choice(
                    candidates.size, size=min(group_size, candidates.size), replace=False
                )
                group = candidates[positions]
                degrees = state.degrees[group].tolist()
                sampled_total += len(degrees)
                sample_words += sum(degrees) + len(degrees)
                for vertex, degree in zip(group.tolist(), degrees):
                    if degree >= selection_threshold:
                        state.add(vertex)
                        selected += 1
                        candidates = members[~state.blocked[members]]
                        break
        iterations.append(
            IterationStats(
                iteration=k,
                alive=int(alive_edges),
                sampled=sampled_total,
                sample_words=sample_words,
                selected=selected,
                phase=f"iteration-{k}",
            )
        )
        if selected == 0 and state.alive_edge_count() >= alive_edges:
            # Extremely unlikely (all groups missed); force progress by adding
            # the highest-residual-degree vertex so the loop cannot stall.
            candidates = state.unblocked()
            if candidates.size == 0:
                break
            best = candidates[int(np.argmax(state.degrees[candidates]))]
            state.add(int(best))

    # Fewer than n^{1+µ} alive edges remain: ship the residual graph to a
    # single machine and finish the MIS there (Line 14).
    remaining = state.unblocked()
    if remaining.size:
        words = int(state.degrees[remaining].sum()) + int(remaining.size)
        added = sequential_greedy_mis(graph, candidates=remaining, blocked=state.blocked)
        state.add_all(added)
        iterations.append(
            IterationStats(
                iteration=k + 1,
                alive=int(state.alive_edge_count()),
                sampled=int(remaining.size),
                sample_words=words,
                selected=len(added),
                phase="final",
            )
        )

    return IndependentSetResult(
        vertices=state.independent_set(),
        iterations=iterations,
        algorithm="hungry-greedy-mis-improved",
    )
