"""CSR building blocks shared by the vectorized kernels.

Every kernel in this package operates on the same flat representation: a
*CSR pair* ``(indptr, indices)`` where row ``i`` owns the id slice
``indices[indptr[i]:indptr[i+1]]``.  The helpers here cover the three
operations the kernels need:

* :func:`build_csr` — turn a list of per-row id arrays into one CSR pair;
* :func:`gather_rows` — materialise the concatenation of an arbitrary row
  subset (with its own segment ``indptr``) without a Python loop;
* :func:`first_occurrence_mask` — flag, for a flat id array, which entries
  are the first occurrence of their id.

``first_occurrence_mask`` powers the batch selection of the set cover
kernel: the sequential local ratio loop processes items one at a time, and
two items only interact when they touch a common id (a shared owner set).
Within a window of the processing order, accept every item *all* of whose
touched ids occur for the first time at that item.  Such items are
pairwise disjoint (a shared id would make the later occurrence non-first)
and no earlier window item touches their ids (an earlier toucher would own
the first occurrence), so the whole accepted set can be executed as one
vectorized batch against the window-entry state.  Rejected items are deferred *in order* to the next
window; any later item conflicting with a deferred one is itself rejected
(the deferred item holds the earlier occurrence), so deferred items run
only after every earlier conflicting item has been applied and before every
later one.  Both sides are therefore bitwise-faithful to the sequential
loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["build_csr", "gather_rows", "first_occurrence_mask"]


def build_csr(rows: Sequence[np.ndarray], num_rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-row id arrays into a ``(indptr, indices)`` CSR pair."""
    count = len(rows) if num_rows is None else int(num_rows)
    sizes = np.fromiter((len(row) for row in rows), dtype=np.int64, count=len(rows))
    indptr = np.zeros(count + 1, dtype=np.int64)
    if sizes.size:
        indptr[1 : sizes.size + 1] = np.cumsum(sizes)
        indptr[sizes.size + 1 :] = indptr[sizes.size]
    indices = (
        np.concatenate([np.asarray(row, dtype=np.int64) for row in rows])
        if sizes.size and int(sizes.sum())
        else np.empty(0, dtype=np.int64)
    )
    return indptr, indices


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the id slices of ``rows`` into one flat array.

    Returns ``(flat, seg_indptr)`` where ``flat`` is the concatenation of
    ``indices[indptr[r]:indptr[r+1]]`` over ``rows`` (in row order) and
    ``seg_indptr`` delimits each row's segment within ``flat``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    seg_indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=seg_indptr[1:])
    total = int(seg_indptr[-1])
    if total == 0:
        return np.empty(0, dtype=indices.dtype), seg_indptr
    # flat[k] = indices[starts[seg(k)] + (k - seg_indptr[seg(k)])], built by
    # repeating each row's (start - segment offset) and adding arange.
    offsets = np.repeat(starts - seg_indptr[:-1], lengths)
    return indices[offsets + np.arange(total)], seg_indptr


def first_occurrence_mask(flat: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Boolean mask: ``flat[k]`` is the first occurrence of its id in ``flat``.

    ``scratch`` is a reusable ``int64`` work array indexed by id (at least
    as long as the largest id plus one); its contents need not be
    initialised — every id in ``flat`` is written before it is read.  The
    trick is one reversed scatter: writing positions back-to-front leaves
    each id's *first* position in ``scratch``, turning first-occurrence
    detection into two O(window) passes with no sort.
    """
    positions = np.arange(flat.size, dtype=np.int64)
    scratch[flat[::-1]] = positions[::-1]
    return scratch[flat] == positions
