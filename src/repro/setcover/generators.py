"""Synthetic weighted set cover workloads.

Two regimes appear in the paper:

* the ``f``-approximation (Theorem 2.4) targets instances where the ground
  set is huge compared to the number of sets (``n ≪ m``, e.g. vertex cover
  where the elements are the edges), with every element appearing in at most
  ``f`` sets;
* the ``(1+ε) ln ∆`` greedy algorithm (Theorem 4.6) targets instances with
  ``m ≪ n`` and ``n = poly(m)``.

Generators for both regimes are provided, plus a couple of structured
instances with known optima that the tests use for exact approximation-ratio
checks.
"""

from __future__ import annotations

import numbers
from typing import Callable, Iterator

import numpy as np

from .instance import SetCoverInstance

__all__ = [
    "random_frequency_bounded_instance",
    "random_coverage_instance",
    "planted_partition_instance",
    "disjoint_groups_instance",
    "vertex_cover_instance",
]

_WORD_MASK = 0xFFFFFFFF


def _check_count(value: float, *, generator: str, name: str, minimum: int) -> int:
    """Validate a generator's size up front (clear error, not NumPy's).

    An integral value (``4.0`` and NumPy integers count) of at least
    ``minimum``; ``4.5`` and ``True`` are refused.
    """
    integral = (
        isinstance(value, numbers.Real)
        and not isinstance(value, (bool, np.bool_))
        and (isinstance(value, numbers.Integral) or float(value).is_integer())
    )
    if not integral or value < minimum:
        what = "a positive integer" if minimum == 1 else "a non-negative integer"
        raise ValueError(f"{generator}: {name} must be {what}, got {value!r}")
    return int(value)


def _random_weights(
    n: int, rng: np.random.Generator, weight_range: tuple[float, float]
) -> np.ndarray:
    lo, hi = weight_range
    return rng.uniform(lo, hi, size=n)


def _from_pairs(
    sets: np.ndarray, elements: np.ndarray, num_sets: int, num_elements: int, weights: np.ndarray
) -> SetCoverInstance:
    """The instance in which set ``sets[t]`` holds element ``elements[t]``.

    ``elements`` must ascend within each set; the stable sort by set keeps
    that order, and ``from_csr(..., validate=True)`` checks every weight,
    range, order and coverage invariant.
    """
    order = np.argsort(sets, kind="stable")
    indptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(np.bincount(sets, minlength=num_sets), out=indptr[1:])
    return SetCoverInstance.from_csr(
        indptr, elements[order], weights, num_elements=num_elements, validate=True
    )


def _words(rng: np.random.Generator, count: Callable[[], int]) -> Iterator[int]:
    """``rng``'s 32-bit words, in the order its bounded draws read them.

    ``rng.integers(0, 2**32, size=c, dtype=np.uint32)`` hands out the bit
    generator's next ``c`` 32-bit words (PCG64's buffered half word first),
    the words NumPy's bounded draws read one at a time.  ``count()`` must be
    a lower bound on the words still to be read when the last batch runs
    out, so no word is fetched that the draws would not have used and
    ``rng`` ends in exactly the state those draws leave.
    """
    while True:
        yield from rng.integers(0, 2**32, size=count(), dtype=np.uint32).tolist()


def _bounded(words: Iterator[int], r: int) -> int:
    """A draw from ``[0, r]`` as NumPy's ``integers`` and ``choice`` make it.

    Lemire's method on 32-bit words (``r < 2**32 - 1``, which any instance
    that fits in memory satisfies): ``(x·(r+1)) >> 32``, redrawn while the
    low 32 bits of the product are below ``(2**32 - 1 - r) mod (r+1)``;
    ``r = 0`` takes no word.
    """
    if r == 0:
        return 0
    span = r + 1
    product = next(words) * span
    if product & _WORD_MASK < span:
        threshold = (_WORD_MASK - r) % span
        while product & _WORD_MASK < threshold:
            product = next(words) * span
    return product >> 32


def _floyd_sample(words: Iterator[int], n: int, k: int) -> set[int]:
    """``choice(n, size=k, replace=False)``'s sample when ``n <= 10_000`` or ``k <= n // 50``.

    Floyd's algorithm: for ``j`` from ``n - k`` to ``n - 1``, draw from
    ``[0, j]`` and take the draw, or ``j`` if the draw was taken before.
    NumPy then shuffles the sample, which moves no set in or out of it, so
    only the shuffle's draws are read.
    """
    sample: set[int] = set()
    for j in range(n - k, n):
        value = _bounded(words, j)
        sample.add(j if value in sample else value)
    for i in range(k - 1, 0, -1):
        _bounded(words, i)
    return sample


def _tail_shuffle_sample(words: Iterator[int], n: int, k: int) -> list[int]:
    """``choice(n, size=k, replace=False)``'s sample otherwise.

    The last ``k`` places of ``range(n)`` after Fisher–Yates swaps of place
    ``i`` with a draw from ``[0, i]``, for ``i`` from ``n - 1`` down to
    ``max(n - k, 1)``; only the places a swap touched are stored.
    """
    moved: dict[int, int] = {}
    for i in range(n - 1, max(n - k, 1) - 1, -1):
        j = _bounded(words, i)
        moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
    return [moved.get(i, i) for i in range(n - k, n)]


def random_frequency_bounded_instance(
    num_sets: int,
    num_elements: int,
    max_frequency: int,
    rng: np.random.Generator,
    *,
    weight_range: tuple[float, float] = (1.0, 10.0),
) -> SetCoverInstance:
    """An instance where every element lies in at most ``max_frequency`` sets.

    Each element independently chooses between 1 and ``max_frequency``
    distinct sets to belong to, so coverage is guaranteed and the frequency
    bound ``f`` holds exactly.  This is the workload for the
    ``f``-approximation experiments (``n ≪ m``).

    The draws are, word for word, those of ``k = rng.integers(1,
    max_frequency + 1)`` and ``rng.choice(num_sets, size=k, replace=False)``
    per element, then ``rng.uniform(*weight_range, size=num_sets)`` for the
    weights; the per-element calls are replayed on words fetched in bulk
    (:func:`_words`, :func:`_bounded`).
    """
    generator = "random_frequency_bounded_instance"
    f = _check_count(max_frequency, generator=generator, name="max_frequency", minimum=1)
    num_sets = _check_count(num_sets, generator=generator, name="num_sets", minimum=1)
    if num_sets < f:
        raise ValueError(
            f"{generator}: num_sets must be at least max_frequency ({f}), got {num_sets}"
        )
    num_elements = _check_count(num_elements, generator=generator, name="num_elements", minimum=0)
    # Every element reads at least one word for k (unless f = 1) and one for
    # its last owner (unless num_sets = 1), so a fetch made while ``element``
    # is drawn takes the word it needs plus that many per element after it.
    fewest = (f > 1) + (num_sets > 1)
    words = _words(rng, lambda: 1 + fewest * (num_elements - 1 - element))
    owners: list[int] = []
    sizes: list[int] = []
    for element in range(num_elements):
        k = 1 + _bounded(words, f - 1)
        if num_sets <= 10_000 or k <= num_sets // 50:
            owners.extend(_floyd_sample(words, num_sets, k))
        else:
            owners.extend(_tail_shuffle_sample(words, num_sets, k))
        sizes.append(k)
    elements = np.repeat(np.arange(num_elements, dtype=np.int64), sizes)
    weights = _random_weights(num_sets, rng, weight_range)
    return _from_pairs(
        np.array(owners, dtype=np.int64), elements, num_sets, num_elements, weights
    )


def random_coverage_instance(
    num_sets: int,
    num_elements: int,
    rng: np.random.Generator,
    *,
    density: float = 0.05,
    weight_range: tuple[float, float] = (1.0, 10.0),
) -> SetCoverInstance:
    """A dense-ish random instance for the greedy regime (``m ≪ n``).

    Each (set, element) incidence is present independently with probability
    ``density``; a final pass adds each uncovered element to one random set
    so the instance is feasible.

    The draws are ``rng.random((num_sets, num_elements))`` for the
    incidences, ``rng.integers(0, num_sets)`` per uncovered element in
    element order (made as one ``size=`` call, which reads the same words),
    then ``rng.uniform(*weight_range, size=num_sets)`` for the weights.
    """
    generator = "random_coverage_instance"
    num_sets = _check_count(num_sets, generator=generator, name="num_sets", minimum=0)
    num_elements = _check_count(num_elements, generator=generator, name="num_elements", minimum=0)
    if num_elements and not num_sets:
        raise ValueError(
            f"{generator}: num_sets must be at least 1 when num_elements is positive, "
            f"got {num_sets}"
        )
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    incidence = rng.random((num_sets, num_elements)) < density
    uncovered = np.flatnonzero(~incidence.any(axis=0))
    incidence[rng.integers(0, num_sets, size=len(uncovered)), uncovered] = True
    sets, elements = np.nonzero(incidence)
    weights = _random_weights(num_sets, rng, weight_range)
    return _from_pairs(sets, elements, num_sets, num_elements, weights)


def planted_partition_instance(
    num_blocks: int,
    block_size: int,
    decoys_per_block: int,
    rng: np.random.Generator,
    *,
    cheap_weight: float = 1.0,
    decoy_weight: float = 0.8,
) -> SetCoverInstance:
    """An instance with a *known* optimal cover.

    The ground set is partitioned into ``num_blocks`` blocks of
    ``block_size`` elements.  For each block there is one "planted" set
    covering the whole block at weight ``cheap_weight``, plus
    ``decoys_per_block`` sets each covering a strict random subset at weight
    ``decoy_weight``.  Choosing all planted sets is optimal whenever
    ``decoy_weight > cheap_weight / 2`` (a decoy never covers a full block,
    so at least two sets per block are needed otherwise); the optimum value
    ``num_blocks * cheap_weight`` is returned by
    :meth:`SetCoverInstance.cover_weight` on ``range(num_blocks)``.
    """
    if block_size < 2:
        raise ValueError("block_size must be at least 2 so decoys are strictly partial")
    sets: list[np.ndarray] = []
    weights: list[float] = []
    m = num_blocks * block_size
    for block in range(num_blocks):
        lo = block * block_size
        block_elements = np.arange(lo, lo + block_size)
        sets.append(block_elements)
        weights.append(cheap_weight)
    for block in range(num_blocks):
        lo = block * block_size
        block_elements = np.arange(lo, lo + block_size)
        for _ in range(decoys_per_block):
            size = int(rng.integers(1, block_size))
            subset = rng.choice(block_elements, size=size, replace=False)
            sets.append(subset)
            weights.append(decoy_weight)
    return SetCoverInstance(sets, np.asarray(weights), num_elements=m)


def disjoint_groups_instance(
    num_groups: int, group_size: int, *, weight: float = 1.0
) -> SetCoverInstance:
    """The trivial instance of disjoint sets (optimum = all sets, f = 1)."""
    sets = [np.arange(g * group_size, (g + 1) * group_size) for g in range(num_groups)]
    weights = np.full(num_groups, weight)
    return SetCoverInstance(sets, weights, num_elements=num_groups * group_size)


def vertex_cover_instance(
    graph,
    rng: np.random.Generator | None = None,
    *,
    weight_range: tuple[float, float] = (1.0, 10.0),
    vertex_weights: np.ndarray | None = None,
) -> tuple[SetCoverInstance, np.ndarray]:
    """Encode weighted vertex cover on ``graph`` as a frequency-2 set cover instance.

    Returns the instance and the vertex weight vector used.
    """
    n = graph.num_vertices
    if vertex_weights is None:
        if rng is None:
            vertex_weights = np.ones(n, dtype=np.float64)
        else:
            vertex_weights = _random_weights(n, rng, weight_range)
    instance = SetCoverInstance.from_vertex_cover(graph, vertex_weights)
    return instance, np.asarray(vertex_weights, dtype=np.float64)
