"""Weighted set cover instances.

In the weighted set cover problem we are given ``n`` sets
``S_1, …, S_n ⊆ [m]`` with positive weights ``w_1, …, w_n`` and must find a
minimum-weight sub-collection covering the ground set ``[m]``.

The instance stores both the *primal* view (each set's elements) and the
*dual* view (for each element ``j``, the list ``T_j`` of sets containing it),
because the paper's ``f``-approximation operates on the dual representation
(Theorem 2.4) while the greedy ``(1+ε)·H_∆`` algorithm works on the primal
one (Section 4).

Both views are exposed as lazily-built CSR incidence indexes —
``(indptr, indices)`` array pairs via :meth:`SetCoverInstance.set_incidence`
and :meth:`SetCoverInstance.element_incidence` — which is what the
vectorized kernels in :mod:`repro.kernels` gather from.  ``sets_containing``
returns a slice of the dual index (set ids in increasing order, exactly as
the former per-element lists did).

The key structural parameters of Figure 1 are exposed as properties:

* ``frequency`` — ``f``, the largest number of sets containing any element;
* ``max_set_size`` — ``∆``, the size of the largest set;
* ``weight_ratio`` — ``w_max / w_min``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..mapreduce.exceptions import InfeasibleInstanceError

__all__ = ["SetCoverInstance"]


class SetCoverInstance:
    """An immutable weighted set cover instance.

    Parameters
    ----------
    sets:
        Iterable of element collections; ``sets[i]`` are the elements of
        ``S_i``.  Elements are integers in ``[0, num_elements)``.
    weights:
        Positive weight of each set.  Defaults to all ones.
    num_elements:
        Size ``m`` of the ground set.  Defaults to one plus the largest
        element mentioned.
    validate:
        When ``True`` (default), check element ranges, weight positivity,
        and that every element is coverable.
    """

    __slots__ = (
        "_sets",
        "_weights",
        "_m",
        "_set_sizes",
        "_set_indptr",
        "_set_indices",
        "_elem_indptr",
        "_elem_indices",
    )

    def __init__(
        self,
        sets: Iterable[Iterable[int]],
        weights: Sequence[float] | np.ndarray | None = None,
        *,
        num_elements: int | None = None,
        validate: bool = True,
    ):
        normalized: list[np.ndarray] = []
        max_element = -1
        for s in sets:
            arr = (
                np.unique(np.asarray(s, dtype=np.int64))
                if isinstance(s, np.ndarray)
                else np.unique(np.asarray(list(s), dtype=np.int64))
            )
            normalized.append(arr)
            if arr.size:
                max_element = max(max_element, int(arr.max()))
        self._sets = normalized
        m = (max_element + 1) if num_elements is None else int(num_elements)
        self._m = m
        n = len(normalized)
        if weights is None:
            w = np.ones(n, dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n,):
                raise ValueError("weights must have one entry per set")
        self._weights = w
        self._set_sizes = np.fromiter(
            (arr.size for arr in normalized), dtype=np.int64, count=n
        )
        self._set_indptr: np.ndarray | None = None
        self._set_indices: np.ndarray | None = None
        self._elem_indptr: np.ndarray | None = None
        self._elem_indices: np.ndarray | None = None
        if validate:
            if np.any(w <= 0) or np.any(~np.isfinite(w)):
                raise ValueError("set weights must be positive and finite")
            for arr in normalized:
                if arr.size and (arr.min() < 0 or arr.max() >= m):
                    raise ValueError("set element out of range")
            if m:
                _, indices = self.set_incidence()
                occurrences = np.bincount(indices, minlength=m)
                uncovered = np.flatnonzero(occurrences == 0)
                if uncovered.size:
                    raise InfeasibleInstanceError(
                        f"{uncovered.size} element(s) are contained in no set; "
                        f"first few: {uncovered[:5].tolist()}"
                    )

    @classmethod
    def from_csr(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        num_elements: int,
        validate: bool = False,
    ) -> "SetCoverInstance":
        """Build an instance directly from a primal CSR incidence index.

        This is the zero-copy trusted constructor used by the dataset store
        (:mod:`repro.datasets`): the caller asserts the index already
        satisfies the class invariants — ``indptr`` starting at 0 and never
        decreasing, ``indices[indptr[i]:indptr[i+1]]`` sorted and
        duplicate-free per set, elements in range, every element covered —
        so no normalisation pass runs and (memory-mapped) input
        arrays of the right dtype are adopted as-is.  Pass ``validate=True``
        to check the invariants anyway.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or len(indptr) < 1:
            raise ValueError("indptr must be a non-empty 1-D array")
        n = len(indptr) - 1
        m = int(num_elements)
        if weights is None:
            w = np.ones(n, dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n,):
                raise ValueError("weights must have one entry per set")
        instance = cls.__new__(cls)
        bounds = indptr.tolist()
        instance._sets = [indices[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        instance._weights = w
        instance._m = m
        instance._set_sizes = np.diff(indptr)
        instance._set_indptr = indptr
        instance._set_indices = indices
        instance._elem_indptr = None
        instance._elem_indices = None
        if validate:
            if bounds[0] != 0 or np.any(instance._set_sizes < 0) or bounds[-1] != len(indices):
                raise ValueError("indptr is not a valid monotone CSR pointer array")
            if np.any(w <= 0) or np.any(~np.isfinite(w)):
                raise ValueError("set weights must be positive and finite")
            if len(indices) and (indices.min() < 0 or indices.max() >= m):
                raise ValueError("set element out of range")
            owners = np.repeat(np.arange(n), instance._set_sizes)
            if np.any((np.diff(indices) <= 0) & (np.diff(owners) == 0)):
                raise ValueError("each set's elements must be sorted and unique")
            if m:
                occurrences = np.bincount(indices, minlength=m)
                uncovered = np.flatnonzero(occurrences == 0)
                if uncovered.size:
                    raise InfeasibleInstanceError(
                        f"{uncovered.size} element(s) are contained in no set; "
                        f"first few: {uncovered[:5].tolist()}"
                    )
        return instance

    # ------------------------------------------------------------------ #
    # CSR incidence indexes (lazily built)
    # ------------------------------------------------------------------ #
    def set_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Primal CSR index: ``indices[indptr[i]:indptr[i+1]]`` are ``S_i``'s elements."""
        if self._set_indptr is None:
            indptr = np.zeros(len(self._sets) + 1, dtype=np.int64)
            np.cumsum(self._set_sizes, out=indptr[1:])
            self._set_indptr = indptr
            self._set_indices = (
                np.concatenate(self._sets) if int(indptr[-1]) else np.empty(0, dtype=np.int64)
            )
        assert self._set_indices is not None
        return self._set_indptr, self._set_indices

    def element_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Dual CSR index: ``indices[indptr[j]:indptr[j+1]]`` are ``T_j``'s set ids.

        Within each element the set ids appear in increasing order (the
        stable sort preserves set-insertion order, which is id order).
        """
        if self._elem_indptr is None:
            set_indptr, set_indices = self.set_incidence()
            owners = np.repeat(np.arange(len(self._sets), dtype=np.int64), self._set_sizes)
            order = np.argsort(set_indices, kind="stable")
            indptr = np.zeros(self._m + 1, dtype=np.int64)
            if set_indices.size:
                np.cumsum(np.bincount(set_indices, minlength=self._m), out=indptr[1:])
            self._elem_indptr = indptr
            self._elem_indices = owners[order]
        assert self._elem_indices is not None
        return self._elem_indptr, self._elem_indices

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_sets(self) -> int:
        """Number of sets ``n``."""
        return len(self._sets)

    @property
    def num_elements(self) -> int:
        """Size of the ground set ``m``."""
        return self._m

    @property
    def weights(self) -> np.ndarray:
        """Set weights (read-only view)."""
        return self._weights

    def set_elements(self, set_id: int) -> np.ndarray:
        """Elements of ``S_{set_id}``."""
        return self._sets[set_id]

    def sets_containing(self, element: int) -> np.ndarray:
        """The dual list ``T_j``: ids of sets containing ``element``."""
        indptr, indices = self.element_incidence()
        return indices[indptr[element] : indptr[element + 1]]

    @property
    def set_sizes(self) -> np.ndarray:
        """``|S_i|`` for every set (read-only view)."""
        return self._set_sizes

    # ------------------------------------------------------------------ #
    # Structural parameters (Figure 1)
    # ------------------------------------------------------------------ #
    @property
    def frequency(self) -> int:
        """``f``: the maximum number of sets containing any single element."""
        if self._m == 0:
            return 0
        indptr, _ = self.element_incidence()
        counts = np.diff(indptr)
        return int(counts.max()) if counts.size else 0

    @property
    def max_set_size(self) -> int:
        """``∆``: the size of the largest set."""
        return int(self._set_sizes.max()) if self.num_sets else 0

    @property
    def weight_ratio(self) -> float:
        """``w_max / w_min``."""
        if self.num_sets == 0:
            return 1.0
        return float(self._weights.max() / self._weights.min())

    @property
    def total_size(self) -> int:
        """``Σ_i |S_i|`` — the input size ``N`` in the MRC accounting."""
        return int(self._set_sizes.sum())

    # ------------------------------------------------------------------ #
    # Solution helpers
    # ------------------------------------------------------------------ #
    def cover_weight(self, chosen: Iterable[int]) -> float:
        """Total weight of the sets with the given ids."""
        ids = np.asarray(sorted({int(i) for i in chosen}), dtype=np.int64)
        return float(self._weights[ids].sum()) if ids.size else 0.0

    def covered_elements(self, chosen: Iterable[int]) -> np.ndarray:
        """Boolean mask of the elements covered by the chosen sets."""
        mask = np.zeros(self._m, dtype=bool)
        for set_id in chosen:
            elems = self._sets[int(set_id)]
            if elems.size:
                mask[elems] = True
        return mask

    def is_cover(self, chosen: Iterable[int]) -> bool:
        """Return ``True`` if the chosen sets cover the entire ground set."""
        return bool(self.covered_elements(chosen).all()) if self._m else True

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_vertex_cover(cls, graph, vertex_weights: Sequence[float] | np.ndarray | None = None):
        """Encode weighted vertex cover as set cover with frequency ``f = 2``.

        Each vertex becomes a set containing its incident edges; each edge is
        an element contained in exactly its two endpoints' sets.  The dual
        index is the ``(u, v)`` pairs themselves (``u < v``: set ids ascend).
        """
        n, m = graph.num_vertices, graph.num_edges
        # One sort of the half-edges by the unique key vertex·m + edge id.
        endpoints = np.column_stack([graph.edge_u, graph.edge_v]).ravel()
        keys = np.sort(endpoints * m + np.repeat(np.arange(m), 2))
        indptr = np.searchsorted(keys, np.arange(n + 1) * m)
        instance = cls.from_csr(indptr, keys % m, vertex_weights, num_elements=m, validate=True)
        instance._elem_indptr = np.arange(0, 2 * m + 1, 2, dtype=np.int64)
        instance._elem_indices = endpoints
        return instance

    def restricted_to_elements(self, elements: Iterable[int]) -> "SetCoverInstance":
        """Return the instance induced on a subset of elements (re-using element ids).

        Sets keep their ids and weights; only their element lists are
        intersected with ``elements``.  Elements outside the subset simply do
        not appear, so feasibility validation is skipped.
        """
        keep = np.zeros(self._m, dtype=bool)
        idx = np.asarray(list(elements), dtype=np.int64)
        if idx.size:
            keep[idx] = True
        new_sets = [arr[keep[arr]] if arr.size else arr for arr in self._sets]
        return SetCoverInstance(
            new_sets, self._weights.copy(), num_elements=self._m, validate=False
        )

    def word_count(self) -> int:
        """Model-level size in words: one word per (set, element) incidence plus weights."""
        return self.total_size + self.num_sets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetCoverInstance(n={self.num_sets}, m={self.num_elements}, "
            f"f={self.frequency}, delta={self.max_set_size})"
        )
