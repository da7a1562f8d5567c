"""Algorithm 1 — randomized local ratio ``f``-approximation for weighted set cover.

The algorithm (Section 2.1 of the paper) repeatedly samples each still-alive
element independently with probability ``p = min(1, 2η/|U_r|)``, ships the
sample to a central machine, and runs the sequential local ratio method on
the sampled elements only.  Because the sequential method may process
elements in an arbitrary order, the output is still an exact
``f``-approximation (Theorem 2.3); the sampling merely determines the order
and — crucially — the weight reductions caused by the sample kill a constant
fraction of the *unsampled* elements, so only ``O(c/µ)`` iterations are
needed when ``m ≤ n^{1+c}`` and ``η = n^{1+µ}``.

Weighted vertex cover is the ``f = 2`` special case
(:func:`randomized_local_ratio_vertex_cover`).
"""

from __future__ import annotations

import numpy as np

from ...kernels import set_cover_reduction
from ...mapreduce.exceptions import MAX_RESAMPLES, AlgorithmFailureError
from ...setcover.instance import SetCoverInstance
from ..results import IterationStats, SetCoverResult

__all__ = [
    "randomized_local_ratio_set_cover",
    "randomized_local_ratio_vertex_cover",
    "default_eta",
]

#: Sample-size multiplier from Line 5 of Algorithm 1 (``p = min(1, 2η/|U_r|)``).
SAMPLE_MULTIPLIER = 2.0
#: Failure threshold from Line 6 of Algorithm 1 (``|U'| > 6η``).
FAILURE_MULTIPLIER = 6.0


def default_eta(num_sets: int, mu: float) -> int:
    """The paper's default per-machine budget ``η = n^{1+µ}``."""
    if num_sets <= 0:
        return 1
    return max(1, int(round(num_sets ** (1.0 + mu))))


def randomized_local_ratio_set_cover(
    instance: SetCoverInstance,
    eta: int,
    rng: np.random.Generator,
    *,
    max_iterations: int | None = None,
) -> SetCoverResult:
    """Run Algorithm 1 on ``instance`` with per-round sample budget ``η``.

    A sample of more than ``6η`` elements (an ``exp(-η)`` event) is redrawn
    and counted on ``failed_attempts``, up to
    :data:`~repro.mapreduce.exceptions.MAX_RESAMPLES` times in a row.

    Parameters
    ----------
    instance:
        The weighted set cover instance (``n`` sets over ``m`` elements).
    eta:
        Sample budget ``η``; the paper takes ``η = n^{1+µ}`` so a sample of
        ``O(η)`` elements (each with its ≤ ``f`` containing sets) fits on one
        machine.
    rng:
        Randomness source.
    max_iterations:
        Safety cap on the number of sampling iterations (defaults to
        ``4 + 4·⌈log(m+1)⌉``, far above the ``⌈c/µ⌉`` bound of Theorem 2.3).

    Returns
    -------
    SetCoverResult
        Chosen set ids, total weight and the per-iteration trace used by the
        MapReduce driver for round/space accounting.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    m = instance.num_elements
    n = instance.num_sets
    if max_iterations is None:
        max_iterations = 4 + 4 * int(np.ceil(np.log2(m + 2)))

    elem_indptr, elem_indices = instance.element_incidence()
    set_indptr, set_indices = instance.set_incidence()
    element_frequencies = np.diff(elem_indptr)
    residual = instance.weights.astype(np.float64).copy()
    in_cover = np.zeros(n, dtype=bool)
    covered = np.zeros(m, dtype=bool)
    chosen: list[int] = []
    iterations: list[IterationStats] = []
    failed_attempts = 0

    def run_local_ratio_on(sample: np.ndarray) -> int:
        """Continue the global local ratio computation on the sampled elements."""
        return set_cover_reduction(
            elem_indptr,
            elem_indices,
            set_indptr,
            set_indices,
            residual,
            covered,
            in_cover,
            sample,
            chosen,
        )

    alive = np.flatnonzero(~covered)
    iteration = 0
    while alive.size:
        iteration += 1
        if iteration > max_iterations:
            raise AlgorithmFailureError(
                f"Algorithm 1 did not converge within {max_iterations} iterations"
            )
        p = min(1.0, SAMPLE_MULTIPLIER * eta / alive.size)
        attempts = 0
        while True:
            attempts += 1
            if p >= 1.0:
                sampled = alive.copy()
            else:
                mask = rng.random(alive.size) < p
                sampled = alive[mask]
            if sampled.size <= FAILURE_MULTIPLIER * eta:
                break
            failed_attempts += 1
            if attempts >= MAX_RESAMPLES:
                raise AlgorithmFailureError(
                    f"sampling failed {attempts} consecutive times (|U_r| = {alive.size})"
                )
        # The random order within the sample exercises the order-robustness of
        # the sequential method; a permutation costs nothing and avoids any
        # accidental bias from element numbering.
        order = rng.permutation(sampled) if sampled.size else sampled
        selected = run_local_ratio_on(order)
        sample_words = int(element_frequencies[sampled].sum()) if sampled.size else 0
        iterations.append(
            IterationStats(
                iteration=iteration,
                alive=int(alive.size),
                sampled=int(sampled.size),
                sample_words=sample_words,
                selected=selected,
            )
        )
        alive = np.flatnonzero(~covered)
        if p >= 1.0:
            # Lemma 2.2: with p = 1 the local ratio pass covers everything.
            break

    weight = instance.cover_weight(chosen)
    return SetCoverResult(
        chosen_sets=chosen,
        weight=weight,
        iterations=iterations,
        failed_attempts=failed_attempts,
        algorithm="randomized-local-ratio-set-cover",
    )


def randomized_local_ratio_vertex_cover(
    graph,
    vertex_weights,
    eta: int,
    rng: np.random.Generator,
) -> SetCoverResult:
    """Algorithm 1 specialised to weighted vertex cover (``f = 2``).

    The graph's edges are the elements and its vertices are the sets; the
    returned ``chosen_sets`` are vertex ids forming a 2-approximate minimum
    weight vertex cover.
    """
    instance = SetCoverInstance.from_vertex_cover(graph, vertex_weights)
    result = randomized_local_ratio_set_cover(instance, eta, rng)
    result.algorithm = "randomized-local-ratio-vertex-cover"
    return result
