"""Local ratio kernels: the subtract-and-freeze loops of Theorems 2.1 / 5.1 and Appendix D.

The sequential local ratio algorithms of the paper walk a processing order
one item at a time, reading and writing a small neighbourhood of shared
state per item: the residual weights of an element's owner sets, or the
potentials ``φ`` of an edge's endpoints.  Two items only interact when
those neighbourhoods overlap.

:func:`set_cover_reduction` exploits that with *window batching*:

1. draw a window: the carried-over deferred items followed by the next
   unvisited items of the order (the carry is at most one window long, so a
   round never touches — or copies — the untouched tail of the order);
2. drop items that are already dead (covered elements): coverage is
   monotone, so dead-now implies dead-at-its-sequential-turn, and skipping
   has no side effects;
3. accept every window item whose owner sets all occur for the *first*
   time at that item (:func:`~repro.kernels.csr.first_occurrence_mask`) —
   accepted items are pairwise disjoint and no earlier window item touches
   their sets, so the state each would see sequentially is exactly the
   window-entry state — and apply them as one batch of NumPy gathers,
   ``np.minimum.reduceat`` reductions and scatter updates;
4. defer the rejected items, *in order*, into the next round's carry — each
   runs only after every earlier conflicting item has been applied, and any
   later conflicting item is itself deferred behind it.

The first window item always first-occurs, so every round retires at least
one item, and a round only ever touches the carry plus one window of fresh
items — never the unvisited tail.  Total work is therefore linear in the
order length times the (bounded) window: adversarial orders where every
item conflicts degrade to one item per round, i.e. the sequential loop at
the fixed per-round vectorization cost — a constant-factor detour on inputs
the paper's workloads never produce, not a complexity cliff.  Because
acceptance can reorder *output* events (a deferred item may emit after a
later accepted one), the kernel records each emission's position in the
original order and restores the sequential emission order with one final
argsort.  The result is bitwise identical to the pure-Python loop retained
in :mod:`repro.kernels.reference` — the golden-equivalence tests under
``tests/kernels/`` enforce exactly that.

Weighted vertex cover has no kernel of its own: it is set cover on the
``f = 2`` encoding (:meth:`~repro.setcover.SetCoverInstance.from_vertex_cover`),
so it runs :func:`set_cover_reduction`.

The other functions are plain loops, because batching them did not pay:
the two reductions (:func:`matching_reduction`,
:func:`b_matching_reduction`) serve only the classical ``local_ratio_*``
algorithms of :mod:`repro.core.local_ratio.sequential`, which no MPC
driver calls; batching the two stack unwinds (:func:`unwind_matching`,
:func:`unwind_b_matching`) saved under 1% of the benchmark's ``mpc`` pass
while losing to the loop at Figure-1 sizes; and Algorithm 4's central
walk (:func:`central_matching_pass`) runs over Python lists of the sampled
edges, which beat its former window batching on both the ``mpc`` pass and
the Figure-1 sweep (``docs/PERFORMANCE.md`` has the measurements).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .csr import first_occurrence_mask, gather_rows

__all__ = [
    "capacity_array",
    "set_cover_reduction",
    "matching_reduction",
    "b_matching_reduction",
    "central_matching_pass",
    "unwind_matching",
    "unwind_b_matching",
]

#: Initial batch-window size; grown while acceptance stays high, shrunk when
#: conflicts dominate (see :func:`_next_window`).
_INITIAL_WINDOW = 256
_MIN_WINDOW = 64


def _next_window(window: int, accepted: int, live: int) -> int:
    """Adapt the window so the per-round overhead keeps paying for itself.

    ``live`` counts the window items that survived the dead-item filter;
    items dropped as dead cost nothing, so only the acceptance rate among
    live items argues for shrinking.
    """
    if live == 0 or accepted * 8 >= live * 3:
        return window * 2
    if accepted * 8 < live:
        return max(_MIN_WINDOW, window // 2)
    return window


def _ordered(values: list[np.ndarray], positions: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-round emissions and restore original-order positions."""
    flat_values = np.concatenate(values)
    flat_positions = np.concatenate(positions)
    return flat_values[np.argsort(flat_positions, kind="stable")]


class _WindowCursor:
    """Draws windows of (ids, positions) from an order, carrying deferrals.

    The conceptual work list is ``carry + order[next:]`` — the deferred
    items of the previous round, in order, followed by the unvisited tail.
    Each ``draw`` materialises at most ``window`` items off the front, so a
    round's cost is bounded by the window, never by the tail; ``defer``
    stores the rejected items (a subset of the window) as the next carry.
    """

    __slots__ = ("ids", "positions", "next", "carry_ids", "carry_pos")

    def __init__(self, ids: np.ndarray, positions: np.ndarray):
        self.ids = ids
        self.positions = positions
        self.next = 0
        self.carry_ids = ids[:0]
        self.carry_pos = self.positions[:0]

    def exhausted(self) -> bool:
        return self.carry_ids.size == 0 and self.next >= self.ids.size

    def draw(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        fresh = min(max(window - self.carry_ids.size, 0), self.ids.size - self.next)
        stop = self.next + fresh
        if self.carry_ids.size == 0:
            window_ids = self.ids[self.next : stop]
            window_pos = self.positions[self.next : stop]
        else:
            window_ids = np.concatenate([self.carry_ids, self.ids[self.next : stop]])
            window_pos = np.concatenate([self.carry_pos, self.positions[self.next : stop]])
        self.next = stop
        return window_ids, window_pos

    def defer(self, ids: np.ndarray, positions: np.ndarray) -> None:
        self.carry_ids = ids
        self.carry_pos = positions


def capacity_array(
    num_vertices: int, b: Mapping[int, int] | Sequence[int] | int
) -> np.ndarray:
    """Materialise per-vertex capacities from a mapping, sequence or scalar.

    The mapping path is vectorized: a default-filled array scatter-updated
    from the mapping's keys, instead of an ``O(n)`` per-vertex ``dict.get``
    loop.  Like that loop, keys outside ``0..n-1`` are ignored.
    """
    n = int(num_vertices)
    if isinstance(b, Mapping):
        capacities = np.ones(n, dtype=np.int64)
        if b:
            keys = np.fromiter(b.keys(), dtype=np.int64, count=len(b))
            values = np.fromiter((int(v) for v in b.values()), dtype=np.int64, count=len(b))
            in_range = (keys >= 0) & (keys < n)
            capacities[keys[in_range]] = values[in_range]
        return capacities
    if np.isscalar(b):
        return np.full(n, int(b), dtype=np.int64)  # type: ignore[arg-type]
    arr = np.asarray(b, dtype=np.int64)
    if arr.shape != (n,):
        raise ValueError("capacity vector must have one entry per vertex")
    return arr


# --------------------------------------------------------------------------- #
# Set cover (Theorem 2.1)
# --------------------------------------------------------------------------- #
def set_cover_reduction(
    element_indptr: np.ndarray,
    element_indices: np.ndarray,
    set_indptr: np.ndarray,
    set_indices: np.ndarray,
    residual: np.ndarray,
    covered: np.ndarray,
    in_cover: np.ndarray,
    order: np.ndarray,
    chosen: list[int],
) -> int:
    """Batched Bar-Yehuda–Even weight reduction over an element order.

    Mutates ``residual`` / ``covered`` / ``in_cover`` in place, appends the
    ids of sets whose residual weight reaches zero to ``chosen`` (in the
    order the sequential loop would), and returns how many sets were added.
    The caller may hold partial state from earlier calls — Algorithm 1 runs
    one call per sampling round against the same arrays.
    """
    order = np.asarray(order, dtype=np.int64)
    selected_before = len(chosen)
    if order.size == 0:
        return 0
    num_sets = in_cover.size
    scratch = np.empty(num_sets, dtype=np.int64)
    # Elements contained in no set are permanent no-ops.
    degrees = element_indptr[order + 1] - element_indptr[order]
    keep = degrees > 0
    cursor = _WindowCursor(order[keep], np.flatnonzero(keep).astype(np.int64))
    new_sets: list[np.ndarray] = []
    new_keys: list[np.ndarray] = []
    window = _INITIAL_WINDOW
    while not cursor.exhausted():
        window_ids, window_pos = cursor.draw(window)
        # Coverage is monotone: an element covered now would be skipped at
        # its sequential turn too — drop it instead of deferring a no-op.
        live = ~covered[window_ids]
        if not live.all():
            window_ids = window_ids[live]
            window_pos = window_pos[live]
        if window_ids.size == 0:
            cursor.defer(window_ids, window_pos)
            window = _next_window(window, 0, 0)
            continue
        owners_flat, seg_indptr = gather_rows(element_indptr, element_indices, window_ids)
        lengths = np.diff(seg_indptr)
        first = first_occurrence_mask(owners_flat, scratch)
        accept = np.logical_and.reduceat(first, seg_indptr[:-1])
        owner_accept = np.repeat(accept, lengths)
        batch_owners = owners_flat[owner_accept]
        batch_lengths = lengths[accept]
        starts = np.zeros(batch_lengths.size, dtype=np.int64)
        np.cumsum(batch_lengths[:-1], out=starts[1:])
        eps = np.minimum.reduceat(residual[batch_owners], starts)
        residual[batch_owners] -= np.repeat(eps, batch_lengths)
        newly_zero = (residual[batch_owners] <= 1e-12) & ~in_cover[batch_owners]
        if np.any(newly_zero):
            sets_now = batch_owners[newly_zero]
            in_cover[sets_now] = True
            # Emission key: element position in the original order, scaled to
            # leave room for the within-element owner rank.
            rank = np.arange(batch_owners.size, dtype=np.int64) - np.repeat(
                starts, batch_lengths
            )
            keys = (
                np.repeat(window_pos[accept], batch_lengths) * (num_sets + 1) + rank
            )[newly_zero]
            new_sets.append(sets_now)
            new_keys.append(keys)
            covered_flat, _ = gather_rows(set_indptr, set_indices, sets_now)
            if covered_flat.size:
                covered[covered_flat] = True
        deferred = ~accept
        cursor.defer(window_ids[deferred], window_pos[deferred])
        window = _next_window(window, int(accept.sum()), window_ids.size)
    if new_sets:
        chosen.extend(_ordered(new_sets, new_keys).tolist())
    return len(chosen) - selected_before


# --------------------------------------------------------------------------- #
# Matching (Theorem 5.1)
# --------------------------------------------------------------------------- #
def matching_reduction(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weights: np.ndarray,
    phi: np.ndarray,
    order: np.ndarray,
    stack: list[int],
) -> int:
    """Paz–Schwartzman reduction: push positive-residual edges, update ``φ``."""
    pushed_before = len(stack)
    for edge in np.asarray(order, dtype=np.int64):
        edge = int(edge)
        u, v = int(edge_u[edge]), int(edge_v[edge])
        residual = float(weights[edge]) - phi[u] - phi[v]
        if residual <= 1e-12:
            continue
        phi[u] += residual
        phi[v] += residual
        stack.append(edge)
    return len(stack) - pushed_before


# --------------------------------------------------------------------------- #
# b-matching (Appendix D)
# --------------------------------------------------------------------------- #
def b_matching_reduction(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    epsilon: float,
    phi: np.ndarray,
    order: np.ndarray,
    stack: list[int],
) -> int:
    """ε-adjusted reduction: live edges push and reduce by ``residual / b``."""
    pushed_before = len(stack)
    for edge in np.asarray(order, dtype=np.int64):
        edge = int(edge)
        u, v = int(edge_u[edge]), int(edge_v[edge])
        w = float(weights[edge])
        if w <= (1.0 + epsilon) * (phi[u] + phi[v]) + 1e-12:
            continue
        residual = w - phi[u] - phi[v]
        phi[u] += residual / capacities[u]
        phi[v] += residual / capacities[v]
        stack.append(edge)
    return len(stack) - pushed_before


# --------------------------------------------------------------------------- #
# Central machine pass of Algorithm 4
# --------------------------------------------------------------------------- #
def central_matching_pass(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weights: np.ndarray,
    phi: np.ndarray,
    on_stack: np.ndarray,
    sample_edges: np.ndarray,
    boundaries: np.ndarray,
    stack: list[int],
) -> int:
    """Central-machine walk of Algorithm 4, over Python lists.

    ``sample_edges`` holds the sampled incidences sorted by host vertex and
    ``boundaries[v]:boundaries[v+1]`` delimits host ``v``'s candidates
    (``E'_v``).  For each host in vertex order, select the first heaviest
    candidate by residual weight ``(w − φ(u)) − φ(v)`` among those not on
    the stack (``np.argmax``'s tie-break), add the residual to ``φ`` of
    both endpoints and push.  The sampled edges' endpoints, weights and
    on-stack bits and ``φ`` are read into lists once and written back
    once, so the walk reads no NumPy scalar.  Mutates ``phi`` and
    ``on_stack``, appends to ``stack`` in host order, returns the number
    of pushes.
    """
    pushed_before = len(stack)
    edges = sample_edges.tolist()
    lows = edge_u[sample_edges].tolist()
    highs = edge_v[sample_edges].tolist()
    edge_weights = weights[sample_edges].tolist()
    stacked = on_stack[sample_edges].tolist()
    potentials = phi.tolist()
    # An edge sampled at both endpoints is a candidate of two hosts; once
    # pushed at the first it is on the stack for the second.
    pushed: set[int] = set()
    bounds = boundaries.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        best, best_residual = -1, -np.inf
        for i in range(lo, hi):
            if stacked[i] or edges[i] in pushed:
                continue
            residual = edge_weights[i] - potentials[lows[i]] - potentials[highs[i]]
            if residual > best_residual:
                best, best_residual = i, residual
        if best_residual <= 1e-12:
            continue
        potentials[lows[best]] += best_residual
        potentials[highs[best]] += best_residual
        pushed.add(edges[best])
        stack.append(edges[best])
    if len(stack) > pushed_before:
        phi[:] = potentials
        on_stack[stack[pushed_before:]] = True
    return len(stack) - pushed_before


# --------------------------------------------------------------------------- #
# Stack unwinding
# --------------------------------------------------------------------------- #
def unwind_matching(
    edge_u: np.ndarray, edge_v: np.ndarray, num_vertices: int, stack: Sequence[int]
) -> list[int]:
    """Unwind a matching stack (LIFO), taking every edge whose endpoints are both free."""
    matched = np.zeros(num_vertices, dtype=bool)
    matching: list[int] = []
    for edge_id in reversed(list(stack)):
        u, v = int(edge_u[edge_id]), int(edge_v[edge_id])
        if not matched[u] and not matched[v]:
            matched[u] = True
            matched[v] = True
            matching.append(int(edge_id))
    return matching


def unwind_b_matching(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    stack: Sequence[int],
    capacities: np.ndarray,
) -> list[int]:
    """Unwind a b-matching stack (LIFO) respecting remaining endpoint capacities."""
    remaining = capacities.astype(np.int64).copy()
    chosen: list[int] = []
    for edge_id in reversed(list(stack)):
        u, v = int(edge_u[edge_id]), int(edge_v[edge_id])
        if remaining[u] > 0 and remaining[v] > 0:
            remaining[u] -= 1
            remaining[v] -= 1
            chosen.append(int(edge_id))
    return chosen
