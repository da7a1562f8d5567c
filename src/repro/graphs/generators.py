"""Synthetic graph workload generators.

The paper analyses graphs with ``n`` vertices and ``m = n^{1+c}`` edges,
``0 < c``, motivated by the densification observations of Leskovec et al.
(``c`` between roughly 0.08 and 0.5 on real data).  These generators produce
workloads with a controllable densification exponent plus the weighted
variants needed by the weighted vertex cover, weighted matching and
b-matching experiments.

All generators take an explicit :class:`numpy.random.Generator` so every
experiment is reproducible from its seed.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = [
    "gnm_graph",
    "densified_graph",
    "power_law_graph",
    "random_bipartite_graph",
    "random_weights",
    "with_random_weights",
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "edge_count_for_exponent",
]


def _check_num_vertices(num_vertices: int, *, generator: str) -> int:
    """Validate a generator's vertex count up front (clear error, not NumPy's)."""
    n = int(num_vertices)
    if n <= 0:
        raise ValueError(
            f"{generator}: num_vertices must be a positive integer, got {num_vertices}"
        )
    return n


def _check_num_edges(num_edges: int, *, generator: str) -> int:
    """Validate a generator's edge count up front (non-negative integer)."""
    m = int(num_edges)
    if m < 0:
        raise ValueError(f"{generator}: num_edges must be non-negative, got {num_edges}")
    return m


def edge_count_for_exponent(num_vertices: int, c: float) -> int:
    """Number of edges ``m = round(n^{1+c})`` clamped to the simple-graph maximum."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(
            f"densification exponent c must be in [0, 1] (m = n^(1+c) is a "
            f"simple graph), got {c}"
        )
    if num_vertices < 2:
        return 0
    max_edges = num_vertices * (num_vertices - 1) // 2
    m = int(round(num_vertices ** (1.0 + c)))
    return max(0, min(m, max_edges))


def _sample_distinct_edges(
    num_vertices: int, num_edges: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``num_edges`` distinct unordered pairs uniformly at random.

    Uses rejection sampling on 64-bit edge keys, which is fast for the
    sparse-to-moderately-dense graphs the experiments use.  Each batch
    draws ``rng.integers(0, n, size=batch)`` twice (the endpoints ``u``,
    then ``v``) and accepts, in draw order, every pair that is not a
    self-loop and whose key was not accepted before, until ``num_edges``
    are accepted: the first occurrence of each new key, found with one
    ``np.unique``.  Above ``max_edges // 2`` edges, one
    ``rng.choice(max_edges, size=num_edges, replace=False)`` picks them
    from the enumerated pairs instead.
    """
    n = num_vertices
    max_edges = n * (n - 1) // 2
    if num_edges > max_edges:
        raise ValueError(f"cannot place {num_edges} simple edges on {n} vertices")
    if num_edges == 0:
        return np.empty((0, 2), dtype=np.int64)
    if num_edges > max_edges // 2:
        # Dense regime: enumerate all pairs and choose without replacement.
        iu, iv = np.triu_indices(n, k=1)
        chosen = rng.choice(len(iu), size=num_edges, replace=False)
        return np.column_stack([iu[chosen], iv[chosen]]).astype(np.int64)
    accepted = np.empty(0, dtype=np.int64)  # keys in acceptance order
    while len(accepted) < num_edges:
        batch = max(1024, 2 * (num_edges - len(accepted)))
        u = rng.integers(0, n, size=batch)
        v = rng.integers(0, n, size=batch)
        keys = (np.minimum(u, v) * n + np.maximum(u, v))[u != v]
        distinct, first = np.unique(keys, return_index=True)
        if len(accepted):
            first = first[~np.isin(distinct, accepted)]
        first.sort()
        accepted = np.concatenate([accepted, keys[first[: num_edges - len(accepted)]]])
    lo, hi = np.divmod(accepted, n)
    return np.column_stack([lo, hi])


def gnm_graph(
    num_vertices: int,
    num_edges: int,
    rng: np.random.Generator,
    *,
    weights: str | None = None,
    weight_range: tuple[float, float] = (1.0, 100.0),
) -> Graph:
    """Erdős–Rényi ``G(n, m)``: ``num_edges`` distinct edges chosen uniformly.

    ``weights`` may be ``None`` (unweighted), ``"uniform"`` or ``"exponential"``;
    see :func:`random_weights`.  The draws are those of
    :func:`_sample_distinct_edges` (batches of ``rng.integers(0, n,
    size=batch)``, or one ``rng.choice`` in the dense regime), then those
    of :func:`random_weights`.
    """
    num_vertices = _check_num_vertices(num_vertices, generator="gnm_graph")
    num_edges = _check_num_edges(num_edges, generator="gnm_graph")
    edges = _sample_distinct_edges(num_vertices, num_edges, rng)
    w = None
    if weights is not None:
        w = random_weights(len(edges), rng, distribution=weights, weight_range=weight_range)
    return Graph(num_vertices, edges, w, validate=False)


def densified_graph(
    num_vertices: int,
    c: float,
    rng: np.random.Generator,
    *,
    weights: str | None = None,
    weight_range: tuple[float, float] = (1.0, 100.0),
) -> Graph:
    """A ``G(n, m)`` graph with ``m = n^{1+c}`` edges (the paper's regime).

    Raises ``ValueError`` for non-positive ``num_vertices`` or a
    densification exponent outside ``[0, 1]``.
    """
    num_vertices = _check_num_vertices(num_vertices, generator="densified_graph")
    m = edge_count_for_exponent(num_vertices, c)
    return gnm_graph(num_vertices, m, rng, weights=weights, weight_range=weight_range)


def power_law_graph(
    num_vertices: int,
    num_edges: int,
    rng: np.random.Generator,
    *,
    exponent: float = 2.5,
    weights: str | None = None,
    weight_range: tuple[float, float] = (1.0, 100.0),
) -> Graph:
    """A Chung–Lu style graph with a power-law expected degree sequence.

    Vertices receive expected degrees proportional to ``(i + 1)^{-1/(exponent-1)}``;
    edges are sampled by picking endpoints with probability proportional to
    those expected degrees and rejecting duplicates/self-loops until
    ``num_edges`` distinct edges are found (or no progress can be made).

    Raises ``ValueError`` for non-positive ``num_vertices``, negative
    ``num_edges``, or a tail exponent ≤ 1 (the degree distribution
    ``(i+1)^{-1/(exponent-1)}`` needs ``exponent > 1``).
    """
    n = _check_num_vertices(num_vertices, generator="power_law_graph")
    num_edges = _check_num_edges(num_edges, generator="power_law_graph")
    if exponent <= 1.0:
        raise ValueError(
            f"power_law_graph: tail exponent must be > 1, got {exponent}"
        )
    if n < 2 or num_edges == 0:
        return Graph(n, np.empty((0, 2), dtype=np.int64))
    ranks = np.arange(1, n + 1, dtype=np.float64)
    target = ranks ** (-1.0 / (exponent - 1.0))
    probs = target / target.sum()
    keys: set[int] = set()
    edges: list[tuple[int, int]] = []
    max_attempts = 50 * num_edges + 1000
    attempts = 0
    while len(edges) < num_edges and attempts < max_attempts:
        batch = max(1024, 2 * (num_edges - len(edges)))
        us = rng.choice(n, size=batch, p=probs)
        vs = rng.choice(n, size=batch, p=probs)
        attempts += batch
        for a, b in zip(us, vs):
            if a == b:
                continue
            lo, hi = (int(a), int(b)) if a < b else (int(b), int(a))
            key = lo * n + hi
            if key in keys:
                continue
            keys.add(key)
            edges.append((lo, hi))
            if len(edges) == num_edges:
                break
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = None
    if weights is not None:
        w = random_weights(len(edge_arr), rng, distribution=weights, weight_range=weight_range)
    return Graph(n, edge_arr, w, validate=False)


def random_bipartite_graph(
    left: int,
    right: int,
    num_edges: int,
    rng: np.random.Generator,
    *,
    weights: str | None = None,
    weight_range: tuple[float, float] = (1.0, 100.0),
) -> Graph:
    """A random bipartite graph with parts ``{0..left-1}`` and ``{left..left+right-1}``."""
    max_edges = left * right
    if num_edges > max_edges:
        raise ValueError("too many edges for the requested bipartite graph")
    chosen = rng.choice(max_edges, size=num_edges, replace=False)
    u = chosen // right
    v = left + (chosen % right)
    edges = np.column_stack([u, v]).astype(np.int64)
    w = None
    if weights is not None:
        w = random_weights(num_edges, rng, distribution=weights, weight_range=weight_range)
    return Graph(left + right, edges, w, validate=False)


def random_weights(
    count: int,
    rng: np.random.Generator,
    *,
    distribution: str = "uniform",
    weight_range: tuple[float, float] = (1.0, 100.0),
) -> np.ndarray:
    """Generate positive edge/set weights.

    ``distribution`` is ``"uniform"`` (uniform on ``weight_range``),
    ``"exponential"`` (shifted exponential with mean at the range midpoint)
    or ``"integer"`` (uniform integers on the range).
    """
    lo, hi = float(weight_range[0]), float(weight_range[1])
    if lo <= 0 or hi < lo:
        raise ValueError("weight_range must be positive and increasing")
    if distribution == "uniform":
        return rng.uniform(lo, hi, size=count)
    if distribution == "exponential":
        scale = (hi - lo) / 2.0 if hi > lo else 1.0
        return lo + rng.exponential(scale if scale > 0 else 1.0, size=count)
    if distribution == "integer":
        return rng.integers(int(lo), int(hi) + 1, size=count).astype(np.float64)
    raise ValueError(f"unknown weight distribution {distribution!r}")


def with_random_weights(
    graph: Graph,
    rng: np.random.Generator,
    *,
    distribution: str = "uniform",
    weight_range: tuple[float, float] = (1.0, 100.0),
) -> Graph:
    """Return a copy of ``graph`` with freshly drawn random weights."""
    return graph.reweighted(
        random_weights(graph.num_edges, rng, distribution=distribution, weight_range=weight_range)
    )


# --------------------------------------------------------------------------- #
# Deterministic structured graphs (used heavily by the unit tests)
# --------------------------------------------------------------------------- #
def cycle_graph(num_vertices: int) -> Graph:
    """The cycle ``C_n``."""
    if num_vertices < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    idx = np.arange(num_vertices)
    edges = np.column_stack([idx, (idx + 1) % num_vertices])
    return Graph(num_vertices, edges)


def path_graph(num_vertices: int) -> Graph:
    """The path ``P_n``."""
    if num_vertices < 1:
        raise ValueError("a path needs at least 1 vertex")
    if num_vertices == 1:
        return Graph(1, np.empty((0, 2), dtype=np.int64))
    idx = np.arange(num_vertices - 1)
    edges = np.column_stack([idx, idx + 1])
    return Graph(num_vertices, edges)


def complete_graph(num_vertices: int) -> Graph:
    """The complete graph ``K_n``."""
    iu, iv = np.triu_indices(num_vertices, k=1)
    return Graph(num_vertices, np.column_stack([iu, iv]))


def star_graph(num_leaves: int) -> Graph:
    """A star with centre 0 and ``num_leaves`` leaves."""
    if num_leaves < 1:
        raise ValueError("a star needs at least one leaf")
    leaves = np.arange(1, num_leaves + 1)
    edges = np.column_stack([np.zeros(num_leaves, dtype=np.int64), leaves])
    return Graph(num_leaves + 1, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows × cols`` grid graph."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")

    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
