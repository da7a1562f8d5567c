"""Algorithm 7 — ε-adjusted randomized local ratio for maximum weight b-matching.

Appendix D of the paper.  The matching algorithm does not extend directly to
b-matching: selecting one edge at a vertex of capacity ``b`` only reduces the
incident weights by a ``1/b`` fraction, so a single selection no longer kills
a vertex's neighbourhood.  The fix is twofold:

* each vertex adds up to ``b(v)·ln(1/δ)`` sampled edges to the stack per
  iteration (``δ = ε/(1+ε)``), which multiplies residual weights of the
  non-selected incident edges by ``(1 − 1/b)^{b·ln(1/δ)} ≤ δ``;
* an edge is declared dead as soon as its weight is at most ``(1+ε)`` times
  the accumulated incident reductions (the *ε-adjusted* reduction), which
  together with the previous point removes all non-heavy edges.

The result, after greedily unwinding the stack subject to the capacities, is
a ``(3 − 2/max(2, b) + 2ε)``-approximate maximum weight b-matching
(Theorems D.1 / D.3).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ...graphs.graph import Graph
from ...kernels import capacity_array
from ...mapreduce.exceptions import AlgorithmFailureError
from ..results import IterationStats, MatchingResult
from .sequential import unwind_b_matching_stack

__all__ = ["randomized_local_ratio_b_matching"]


def randomized_local_ratio_b_matching(
    graph: Graph,
    b: Mapping[int, int] | Sequence[int] | int,
    eta: int,
    rng: np.random.Generator,
    *,
    epsilon: float = 0.1,
    max_iterations: int | None = None,
) -> MatchingResult:
    """Run Algorithm 7 on ``graph`` with capacities ``b`` and sample budget ``η``.

    Parameters
    ----------
    graph:
        Weighted graph with positive edge weights.
    b:
        Vertex capacities: a scalar, a per-vertex sequence, or a mapping.
    eta:
        Per-machine budget ``n^{1+µ}``; each vertex samples about
        ``b(v)·ln(1/δ)·η/n`` of its alive incident edges per iteration and
        the whole graph is processed directly once fewer than
        ``2·b_max·ln(1/δ)·η`` edges remain.
    rng:
        Randomness source.
    epsilon:
        The ε of the ε-adjusted reduction; the approximation factor is
        ``3 − 2/max(2, b_max) + 2ε``.
    max_iterations:
        Safety cap (defaults to ``10 + 20·⌈log2(m+2)⌉``).

    Returns
    -------
    MatchingResult
        Edge ids of a feasible b-matching and the per-iteration trace.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive for the ε-adjusted reduction")
    capacities = capacity_array(graph.num_vertices, b)
    if np.any(capacities < 1):
        raise ValueError("all capacities must be at least 1")

    n, m = graph.num_vertices, graph.num_edges
    if max_iterations is None:
        max_iterations = 10 + 20 * int(np.ceil(np.log2(m + 2)))
    delta = epsilon / (1.0 + epsilon)
    log_term = float(np.log(1.0 / delta))
    b_max = int(capacities.max()) if capacities.size else 1
    # Per-vertex number of stack pushes per iteration (Line 13).
    pushes_per_vertex = np.maximum(1, np.ceil(capacities * log_term)).astype(np.int64)
    # Per-vertex sample size (Line 10): b(v)·ln(1/δ)·n^µ, expressed through η/n.
    per_vertex_sample = np.maximum(
        pushes_per_vertex, np.ceil(capacities * log_term * max(1.0, eta / max(1, n))).astype(np.int64)
    )
    full_sample_threshold = 2.0 * b_max * log_term * eta

    edge_u, edge_v, weights = graph.edge_u, graph.edge_v, graph.weights
    phi = np.zeros(n, dtype=np.float64)
    on_stack = np.zeros(m, dtype=bool)
    alive = weights > 0
    stack: list[int] = []
    iterations: list[IterationStats] = []

    # Precompute incident edge ids per vertex once; alive filtering is cheap.
    incident = [graph.incident_edges(v) for v in range(n)]
    capacities_list = capacities.tolist()

    iteration = 0
    while alive.any():
        iteration += 1
        if iteration > max_iterations:
            raise AlgorithmFailureError(
                f"Algorithm 7 did not converge within {max_iterations} iterations"
            )
        alive_count = int(alive.sum())
        full_sample = alive_count < full_sample_threshold

        sample_words = 0
        pushed_this_round = 0
        sampled_total = 0
        # φ as a list, written back once; alive edges start off the stack,
        # so only this iteration's pushes (``pushed``) can be on it.
        potentials = phi.tolist()
        pushed: set[int] = set()
        stack_before = len(stack)
        for v in range(n):
            inc = incident[v]
            if inc.size == 0:
                continue
            alive_inc = inc[alive[inc]]
            if alive_inc.size == 0:
                continue
            if full_sample:
                candidates = alive_inc
            else:
                k = min(int(per_vertex_sample[v]), alive_inc.size)
                candidates = rng.choice(alive_inc, size=k, replace=False)
            sampled_total += candidates.size
            sample_words += 3 * int(candidates.size)
            # Central machine: repeatedly take the heaviest remaining sampled
            # edge (by residual weight, first on ties) and apply the
            # ε-adjusted reduction (Lines 11-17).  Edges that have already
            # died under the ε-rule are skipped without consuming the push
            # budget; once the largest residual is non-positive every
            # remaining candidate at v is dead.
            budget = int(pushes_per_vertex[v]) if not full_sample else candidates.size
            # (edge, u, v, w) per candidate; one on the stack is never the heaviest.
            columns = (candidates, edge_u[candidates], edge_v[candidates], weights[candidates])
            remaining = [c for c in zip(*(a.tolist() for a in columns)) if c[0] not in pushed]
            pushes_done = 0
            while remaining and pushes_done < budget:
                # Each push raises φ by r/b > 0 and rounding is monotone, so
                # no residual grows during v's loop: a candidate at or below
                # the threshold is dropped for good, and the survivors keep
                # their order, so the first maximum is the same edge.
                best, best_res = 0, 1e-12
                live = []
                for c in remaining:
                    res = c[3] - potentials[c[1]] - potentials[c[2]]
                    if res > 1e-12:
                        if res > best_res:
                            best, best_res = len(live), res
                        live.append(c)
                remaining = live
                if not remaining:
                    break
                edge, uu, vv, w = remaining.pop(best)
                dead_threshold = (1.0 + epsilon) * (potentials[uu] + potentials[vv])
                if w <= dead_threshold + 1e-12:
                    # Dead under the ε-adjusted rule: drop it and keep looking.
                    continue
                potentials[uu] += best_res / capacities_list[uu]
                potentials[vv] += best_res / capacities_list[vv]
                pushed.add(edge)
                stack.append(edge)
                pushed_this_round += 1
                pushes_done += 1
        phi[:] = potentials
        on_stack[stack[stack_before:]] = True

        iterations.append(
            IterationStats(
                iteration=iteration,
                alive=alive_count,
                sampled=int(sampled_total),
                sample_words=int(sample_words),
                selected=pushed_this_round,
            )
        )

        # ε-adjusted death rule (Line 18): an edge survives only if its weight
        # exceeds (1+ε)·(φ(u)+φ(v)).
        survives = weights > (1.0 + epsilon) * (phi[edge_u] + phi[edge_v]) + 1e-12
        new_alive = alive & ~on_stack & survives
        if full_sample and new_alive.sum() >= alive_count and pushed_this_round == 0:
            # Degenerate guard: nothing was selected and nothing died (can only
            # happen with pathological weights); stop rather than loop forever.
            break
        alive = new_alive
        if full_sample and not alive.any():
            break

    chosen = unwind_b_matching_stack(graph, stack, capacities)
    weight = float(weights[np.asarray(chosen, dtype=np.int64)].sum()) if chosen else 0.0
    return MatchingResult(
        edge_ids=chosen,
        weight=weight,
        iterations=iterations,
        stack_size=len(stack),
        failed_attempts=0,
        algorithm="randomized-local-ratio-b-matching",
    )
