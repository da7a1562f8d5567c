"""Algorithm 3 — hungry-greedy ``(1 + ε)·H_∆`` approximation for weighted set cover.

Section 4 of the paper.  The algorithm implements the *ε-greedy* rule — add
any set whose cost-effectiveness ``|S_ℓ \\ C| / w_ℓ`` is within a ``(1+ε)``
factor of the current best — using the bucketing technique of the PRAM set
cover literature: the threshold ``L`` starts at ``max_ℓ |S_ℓ|/w_ℓ`` and is
divided by ``(1+ε)`` each time the bucket of almost-optimal sets is
exhausted.

To exhaust a bucket quickly, sets in the bucket are partitioned into
``1/α`` cardinality classes (``α = µ/8``); from class ``i`` the algorithm
samples ``2·m^{(i+1)α}`` groups of about ``m^{µ/2}`` sets and adds one
still-useful set per group (Lines 10–22).  Lemma 4.3 shows the potential
``Φ_k = Σ_{almost-optimal ℓ} |S_ℓ \\ C_k|`` shrinks by ``m^{µ/8}`` per
iteration, giving the round bound of Theorem 4.6.

The residual counts ``|S_ℓ \\ C|`` are maintained incrementally by
:class:`~repro.kernels.coverage.CoverageCounter` (one CSR gather plus a
``bincount`` per insertion) instead of rescanning every set per bucket
refresh; the counts are integers, so results are byte-identical to the
rescanning implementation.

The result is a ``(1 + ε)·H_∆``-approximate minimum weight set cover, where
``∆`` is the largest set size and ``H_∆ ≈ ln ∆``.
"""

from __future__ import annotations

import numpy as np

from ...kernels import CoverageCounter
from ...mapreduce.exceptions import AlgorithmFailureError
from ...setcover.instance import SetCoverInstance
from ..results import IterationStats, SetCoverResult

__all__ = ["hungry_greedy_set_cover", "preprocess_weights"]


def preprocess_weights(
    instance: SetCoverInstance, epsilon: float
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Remark 4.7 preprocessing bounding ``w_max / w_min`` by ``mn/ε``.

    Let ``γ = max_j min_{S ∋ j} w(S)`` (a lower bound on OPT).  Sets with
    weight at most ``γ·ε/n`` are added to the cover outright (they cost at
    most ``ε·OPT`` in total); sets with weight above ``m·γ`` can never be in
    an optimal solution and are discarded.

    Returns ``(usable_mask, forced_sets, gamma)`` where ``forced_sets`` are
    the cheap sets added up-front.
    """
    n, m = instance.num_sets, instance.num_elements
    if m == 0 or n == 0:
        return np.ones(n, dtype=bool), [], np.float64(0.0)
    weights = instance.weights
    indptr, indices = instance.element_incidence()
    frequencies = np.diff(indptr)
    nonempty_starts = indptr[:-1][frequencies > 0]
    if nonempty_starts.size:
        # Per-element cheapest owner, one reduceat over the dual index
        # (empty segments have zero width, so nonempty starts tile the flat
        # array exactly).
        gamma = float(np.minimum.reduceat(weights[indices], nonempty_starts).max())
    else:
        gamma = 0.0
    forced = [int(i) for i in np.flatnonzero(weights <= gamma * epsilon / max(1, n))]
    usable = weights <= m * gamma + 1e-12
    if forced:
        usable[np.asarray(forced, dtype=np.int64)] = True
    return usable, forced, np.float64(gamma)


def hungry_greedy_set_cover(
    instance: SetCoverInstance,
    mu: float,
    rng: np.random.Generator,
    *,
    epsilon: float = 0.2,
    preprocess: bool = False,
    max_iterations: int | None = None,
) -> SetCoverResult:
    """Run Algorithm 3 on ``instance`` with space parameter ``µ``.

    Parameters
    ----------
    instance:
        The weighted set cover instance (this algorithm targets the
        ``m ≪ n`` regime but works for any instance).
    mu:
        Space exponent: machines hold ``O(m^{1+µ} log n)`` words; controls
        the group size ``m^{µ/2}`` and the class step ``α = µ/8``.
    rng:
        Randomness source.
    epsilon:
        The ε of the ε-greedy rule; the approximation guarantee is
        ``(1 + ε)·H_∆``.
    preprocess:
        Apply the weight preprocessing of Remark 4.7 before the main loop.
    max_iterations:
        Safety cap on inner-loop iterations.

    Returns
    -------
    SetCoverResult
        The chosen sets and a per-inner-iteration trace (``alive`` is the
        potential ``Φ_k``, ``phase`` records the current threshold ``L``).
    """
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n, m = instance.num_sets, instance.num_elements
    if m == 0:
        return SetCoverResult([], 0.0, algorithm="hungry-greedy-set-cover")
    alpha = min(max(mu / 8.0, 1e-9), 1.0)
    num_classes = max(1, int(np.ceil(1.0 / alpha)))
    group_size = max(1, int(round(m ** (mu / 2.0))))
    if max_iterations is None:
        max_iterations = 200 + 40 * int(np.ceil(np.log2(m + 2))) * int(
            np.ceil(np.log2(n + 2))
        )

    weights = instance.weights
    # The group loop reads sizes, weights and chosen flags from lists.
    weight_list = weights.tolist()
    size_list = instance.set_sizes.tolist()
    is_chosen = [False] * n
    counter = CoverageCounter(instance)
    chosen: list[int] = []
    chosen_mask = np.zeros(n, dtype=bool)
    iterations: list[IterationStats] = []
    usable = np.ones(n, dtype=bool)

    def add_set(set_id: int) -> None:
        chosen_mask[set_id] = True
        is_chosen[set_id] = True
        chosen.append(set_id)
        counter.add_set(set_id)

    if preprocess:
        usable, forced, _ = preprocess_weights(instance, epsilon)
        for set_id in forced:
            if not chosen_mask[set_id]:
                add_set(set_id)

    # Initial threshold L = max_ℓ |S_ℓ| / w_ℓ.
    ratios = instance.set_sizes / weights
    ratios = np.where(usable, ratios, 0.0)
    L = float(ratios.max()) if n else 0.0
    min_useful_ratio = None
    total_iterations = 0

    while not counter.all_covered():
        if L <= 0:
            raise AlgorithmFailureError("threshold L reached zero with uncovered elements left")
        # Inner while loop: exhaust the bucket of sets with ratio ≥ L/(1+ε).
        while True:
            residual = np.where(usable & ~chosen_mask, counter.residual_counts, 0)
            current_ratio = residual / weights
            bucket = np.flatnonzero(current_ratio >= L / (1.0 + epsilon) - 1e-15)
            if bucket.size == 0:
                break
            total_iterations += 1
            if total_iterations > max_iterations:
                raise AlgorithmFailureError(
                    f"Algorithm 3 did not converge within {max_iterations} iterations"
                )
            bucket_residual = residual[bucket]
            potential = int(bucket_residual.sum())
            selected = 0
            sampled_total = 0
            sample_words = 0
            for i in range(1, num_classes + 1):
                lower = m ** (1.0 - i * alpha)
                upper = m ** (1.0 - (i - 1) * alpha)
                if i == 1:
                    upper = float(m) + 1.0  # top class is open-ended
                members = bucket[(bucket_residual >= lower) & (bucket_residual < upper)]
                if members.size == 0:
                    continue
                selection_threshold = m ** (1.0 - (i + 1) * alpha) / 2.0
                num_groups = max(1, int(round(2 * m ** ((i + 1) * alpha))))
                p = min(1.0, group_size / members.size)
                member_list = members.tolist()
                for _ in range(num_groups):
                    # ``x < p`` on the draws as Python floats is NumPy's test.
                    draws = rng.random(len(member_list)).tolist()
                    group = [s for s, x in zip(member_list, draws) if x < p]
                    if not group:
                        continue
                    if len(group) > 4 * group_size:
                        # Failure event of Line 15; skip this iteration's
                        # remaining groups (Claim 4.1 makes this negligible).
                        break
                    sampled_total += len(group)
                    sample_words += sum([size_list[s] for s in group])
                    for candidate in group:
                        if is_chosen[candidate]:
                            continue
                        # Counts are below 2^53 and weights positive, so
                        # ``live / w`` is NumPy's division and cannot raise.
                        live = counter.uncovered_count(candidate)
                        if (
                            live >= selection_threshold
                            and live / weight_list[candidate] >= L / (1.0 + epsilon) - 1e-15
                        ):
                            add_set(candidate)
                            selected += 1
                            break
            iterations.append(
                IterationStats(
                    iteration=total_iterations,
                    alive=potential,
                    sampled=sampled_total,
                    sample_words=sample_words,
                    selected=selected,
                    phase=f"L={L:.4g}",
                )
            )
            if selected == 0:
                # Guarantee progress even when every group missed (relevant
                # only at the small sizes used in tests): take the best set in
                # the bucket directly.  This is still an ε-greedy step.
                live_counts = counter.residual_counts[bucket]
                ratios_now = live_counts / weights[bucket]
                best = int(bucket[int(np.argmax(ratios_now))])
                if ratios_now.max() >= L / (1.0 + epsilon) - 1e-15 and not chosen_mask[best]:
                    add_set(best)
                else:
                    break
        if counter.all_covered():
            break
        L /= 1.0 + epsilon
        # Terminate surely: once L drops below the smallest useful ratio the
        # remaining uncovered elements are covered by the cheapest containing
        # set (this can only happen due to floating point rounding).
        if min_useful_ratio is None:
            positive = ratios[ratios > 0]
            min_useful_ratio = float(positive.min()) if positive.size else 0.0
        if L < min_useful_ratio / (4.0 * (1.0 + epsilon)):
            for j in np.flatnonzero(~counter.covered):
                owners = instance.sets_containing(int(j))
                owners = owners[usable[owners]] if owners.size else owners
                if owners.size == 0:
                    owners = instance.sets_containing(int(j))
                best = int(owners[int(np.argmin(weights[owners]))])
                if not chosen_mask[best]:
                    add_set(best)
            break

    weight = instance.cover_weight(chosen)
    return SetCoverResult(
        chosen_sets=chosen,
        weight=weight,
        iterations=iterations,
        algorithm="hungry-greedy-set-cover",
    )
