"""Algorithm 2 — the "hungry-greedy" maximal independent set algorithm.

Section 3 of the paper.  The algorithm runs in roughly ``1/α`` *phases*
(``α = µ/2``); phase ``i`` reduces the maximum *residual* degree — the number
of neighbours that are neither in the independent set ``I`` nor adjacent to
it — from ``n^{1−(i−1)α}`` to ``n^{1−iα}``.  Within a phase, while many
*heavy* vertices remain, the algorithm repeatedly draws ``n^{iα}`` groups of
``n^{µ/2}`` uniformly random heavy vertices and adds to ``I`` one vertex per
group that is still heavy when the group is examined (Lemma 3.2 shows each
such sweep shrinks the heavy set by an ``n^{µ/4}`` factor w.h.p.).  Once few
heavy vertices remain, their induced subgraph is finished sequentially on
the central machine, and after the last phase the residual maximum degree is
at most ``n^µ`` so the remaining graph fits on a single machine and is
finished there in one final round.

Total rounds: ``O(1/µ²)`` (Theorem 3.3).  The improved ``O(c/µ)``-round
variant is :mod:`repro.core.hungry_greedy.mis_improved`.
"""

from __future__ import annotations

import numpy as np

from ...graphs.graph import Graph
from ...kernels import greedy_mis_pass
from ..results import IndependentSetResult, IterationStats
from .state import MISState

__all__ = ["hungry_greedy_mis", "sequential_greedy_mis"]


def sequential_greedy_mis(
    graph: Graph,
    candidates: np.ndarray | None = None,
    blocked: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> list[int]:
    """Plain sequential greedy MIS over ``candidates`` respecting ``blocked``.

    Scans the candidates in the given order and adds every vertex that is not
    yet blocked, blocking its neighbours.  Used for the "finish on the
    central machine" steps of Algorithms 2 and 6 and as a standalone
    sequential baseline.  Returns only the newly added vertices.  The scan
    is :func:`~repro.kernels.mis.greedy_mis_pass`, a per-vertex loop
    (batching it lost on every measured shape).
    """
    n = graph.num_vertices
    blocked = np.zeros(n, dtype=bool) if blocked is None else blocked.copy()
    if candidates is None:
        candidates = np.arange(n)
    if order is not None:
        candidates = np.asarray(order, dtype=np.int64)
    adj_indptr, adj_indices = graph.adjacency()
    added: list[int] = []
    greedy_mis_pass(adj_indptr, adj_indices, candidates, blocked, added)
    return added


def hungry_greedy_mis(
    graph: Graph,
    mu: float,
    rng: np.random.Generator,
) -> IndependentSetResult:
    """Run Algorithm 2 on ``graph`` with space parameter ``µ``.

    Parameters
    ----------
    graph:
        The input graph.
    mu:
        Space exponent: machines have ``O(n^{1+µ})`` memory.  Controls the
        group size ``n^{µ/2}`` and (through ``α = µ/2``) the number of phases.
    rng:
        Randomness source.

    Returns
    -------
    IndependentSetResult
        The maximal independent set and a per-sweep trace: ``alive`` is the
        number of heavy vertices at the start of the sweep, ``sampled`` the
        total sampled vertices, ``sample_words`` the neighbourhood words
        shipped to the central machine, ``selected`` how many vertices
        joined ``I``.
    """
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    n = graph.num_vertices
    if n == 0:
        return IndependentSetResult([], algorithm="hungry-greedy-mis")
    alpha = min(max(mu / 2.0, 1e-9), 1.0)
    # Phases stop once the degree threshold reaches n^µ; the rest of the
    # graph is finished on a single machine (it has ≤ n^{1+µ} edges).
    num_phases = max(1, int(np.ceil(max(0.0, 1.0 - mu) / alpha)))
    group_size = max(1, int(round(n ** (mu / 2.0))))

    state = MISState(graph)
    iterations: list[IterationStats] = []
    sweep = 0

    for phase in range(1, num_phases + 1):
        heavy_threshold = max(1.0, n ** (1.0 - phase * alpha))
        heavy_stop = max(1.0, n ** (phase * alpha))
        while True:
            heavy = state.heavy_vertices(heavy_threshold)
            if heavy.size < heavy_stop:
                break
            sweep += 1
            num_groups = max(1, int(round(n ** (phase * alpha))))
            selected = 0
            sampled_total = 0
            sample_words = 0
            for _ in range(num_groups):
                heavy_now = state.heavy_vertices(heavy_threshold)
                if heavy_now.size == 0:
                    break
                group = rng.choice(heavy_now, size=min(group_size, heavy_now.size), replace=False)
                sampled_total += int(group.size)
                # The central machine receives each sampled vertex with its
                # list of alive neighbours (Remark 3.1).
                sample_words += int(state.degrees[group].sum()) + int(group.size)
                eligible = group[state.degrees[group] >= heavy_threshold]
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
        # Few heavy vertices remain (|V_H| < n^{iα}): finish them sequentially
        # on the central machine (Line 12 of Algorithm 2).
        heavy = state.heavy_vertices(heavy_threshold)
        if heavy.size:
            sweep += 1
            words = int(state.degrees[heavy].sum()) + int(heavy.size)
            added = sequential_greedy_mis(graph, candidates=heavy, blocked=state.blocked)
            state.add_all(added)
            iterations.append(
                IterationStats(
                    iteration=sweep,
                    alive=int(heavy.size),
                    sampled=int(heavy.size),
                    sample_words=words,
                    selected=len(added),
                    phase=f"phase-{phase}-cleanup",
                )
            )

    # Final round: the residual maximum degree is below n^µ, so the remaining
    # graph fits on one machine; finish the MIS there.
    remaining = state.unblocked()
    if remaining.size:
        sweep += 1
        words = int(state.degrees[remaining].sum()) + int(remaining.size)
        added = sequential_greedy_mis(graph, candidates=remaining, blocked=state.blocked)
        state.add_all(added)
        iterations.append(
            IterationStats(
                iteration=sweep,
                alive=int(remaining.size),
                sampled=int(remaining.size),
                sample_words=words,
                selected=len(added),
                phase="final",
            )
        )

    return IndependentSetResult(
        vertices=state.independent_set(),
        iterations=iterations,
        algorithm="hungry-greedy-mis",
    )
