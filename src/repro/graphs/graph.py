"""A light-weight weighted undirected graph built on NumPy edge arrays.

The paper's graph algorithms operate on graphs with ``n`` vertices and
``m = n^{1+c}`` edges.  The representation here is an immutable edge list
(``u``, ``v``, ``w`` arrays) plus a lazily-built CSR-style adjacency index,
which keeps the heavy per-round operations (degree computation, sampling of
incident edges, induced subgraphs) vectorized as the HPC guides recommend.

Vertices are integers ``0 .. n-1``.  Self-loops are rejected; parallel edges
are rejected (the algorithms assume simple graphs).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Graph"]


class Graph:
    """An immutable weighted undirected simple graph.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; vertices are ``0 .. n-1``.
    edges:
        Either an ``(m, 2)`` integer array of endpoints or an iterable of
        ``(u, v)`` pairs.
    weights:
        Optional edge weights (length ``m``).  Defaults to all ones
        (the unweighted case).
    validate:
        When ``True`` (default), check vertex ranges, self-loops and
        duplicate edges.
    """

    __slots__ = ("_n", "_u", "_v", "_w", "_adj_indptr", "_adj_indices", "_adj_edge_ids")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        *,
        validate: bool = True,
    ):
        n = int(num_vertices)
        if n < 0:
            raise ValueError("num_vertices must be non-negative")
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array of endpoints")
        u = np.asarray(edge_array[:, 0], dtype=np.int64)
        v = np.asarray(edge_array[:, 1], dtype=np.int64)
        # Canonical orientation u < v for simple-graph checks and stable ids.
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        if weights is None:
            w = np.ones(len(lo), dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (len(lo),):
                raise ValueError("weights must have one entry per edge")
        if validate:
            if len(lo) and (lo.min() < 0 or hi.max() >= n):
                raise ValueError("edge endpoint out of range")
            if np.any(lo == hi):
                raise ValueError("self-loops are not allowed")
            if len(lo):
                keys = lo * n + hi
                if len(np.unique(keys)) != len(keys):
                    raise ValueError("parallel (duplicate) edges are not allowed")
            if np.any(~np.isfinite(w)):
                raise ValueError("edge weights must be finite")
        self._n = n
        self._u = lo
        self._v = hi
        self._w = w
        self._adj_indptr: np.ndarray | None = None
        self._adj_indices: np.ndarray | None = None
        self._adj_edge_ids: np.ndarray | None = None

    @classmethod
    def from_arrays(
        cls,
        num_vertices: int,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        validate: bool = False,
    ) -> "Graph":
        """Build a graph directly from canonical endpoint/weight columns.

        This is the zero-copy trusted constructor used by the dataset store
        (:mod:`repro.datasets`): the caller asserts the arrays already
        satisfy the class invariants — ``edge_u[i] < edge_v[i]``, no
        duplicate edges, endpoints in range — so, unlike ``__init__``, no
        re-orientation or re-validation pass runs and (memory-mapped) input
        arrays of the right dtype are adopted as-is.  Pass ``validate=True``
        to check the invariants anyway.
        """
        n = int(num_vertices)
        u = np.asarray(edge_u, dtype=np.int64)
        v = np.asarray(edge_v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("edge_u and edge_v must be equal-length 1-D arrays")
        if weights is None:
            w = np.ones(len(u), dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != u.shape:
                raise ValueError("weights must have one entry per edge")
        if validate:
            if n < 0:
                raise ValueError("num_vertices must be non-negative")
            if len(u) and (u.min() < 0 or v.max() >= n):
                raise ValueError("edge endpoint out of range")
            if np.any(u >= v):
                raise ValueError("edges must be canonically oriented (u < v)")
            if len(u):
                keys = u * n + v
                if len(np.unique(keys)) != len(keys):
                    raise ValueError("parallel (duplicate) edges are not allowed")
            if np.any(~np.isfinite(w)):
                raise ValueError("edge weights must be finite")
        graph = cls.__new__(cls)
        graph._n = n
        graph._u = u
        graph._v = v
        graph._w = w
        graph._adj_indptr = None
        graph._adj_indices = None
        graph._adj_edge_ids = None
        return graph

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return len(self._u)

    @property
    def edge_u(self) -> np.ndarray:
        """First endpoints (canonical ``u < v``); read-only view."""
        return self._u

    @property
    def edge_v(self) -> np.ndarray:
        """Second endpoints (canonical ``u < v``); read-only view."""
        return self._v

    @property
    def weights(self) -> np.ndarray:
        """Edge weights; read-only view."""
        return self._w

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        """Return the endpoints ``(u, v)`` of edge ``edge_id``."""
        return int(self._u[edge_id]), int(self._v[edge_id])

    def edge_weight(self, edge_id: int) -> float:
        """Return the weight of edge ``edge_id``."""
        return float(self._w[edge_id])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(u, v, weight)`` triples."""
        for i in range(self.num_edges):
            yield int(self._u[i]), int(self._v[i]), float(self._w[i])

    def edge_array(self) -> np.ndarray:
        """Return a fresh ``(m, 2)`` array of edge endpoints."""
        return np.column_stack([self._u, self._v])

    # ------------------------------------------------------------------ #
    # Adjacency
    # ------------------------------------------------------------------ #
    def _build_adjacency(self) -> None:
        if self._adj_indptr is not None:
            return
        n, m = self._n, self.num_edges
        # Every edge contributes two half-edges.
        src = np.concatenate([self._u, self._v]) if m else np.empty(0, dtype=np.int64)
        dst = np.concatenate([self._v, self._u]) if m else np.empty(0, dtype=np.int64)
        eid = np.concatenate([np.arange(m), np.arange(m)]) if m else np.empty(0, dtype=np.int64)
        order = np.argsort(src, kind="stable")
        src, dst, eid = src[order], dst[order], eid[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        if m:
            counts = np.bincount(src, minlength=n)
            indptr[1:] = np.cumsum(counts)
        self._adj_indptr = indptr
        self._adj_indices = dst.astype(np.int64)
        self._adj_edge_ids = eid.astype(np.int64)

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR adjacency pair: ``indices[indptr[v]:indptr[v+1]]`` are ``N(v)``.

        This is the flat view the vectorized kernels gather from; it is the
        same lazily-built index ``neighbors`` slices.
        """
        self._build_adjacency()
        assert self._adj_indptr is not None and self._adj_indices is not None
        return self._adj_indptr, self._adj_indices

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR incidence pair: ``edge_ids[indptr[v]:indptr[v+1]]`` are ``v``'s edges."""
        self._build_adjacency()
        assert self._adj_indptr is not None and self._adj_edge_ids is not None
        return self._adj_indptr, self._adj_edge_ids

    def degrees(self) -> np.ndarray:
        """Return the degree of every vertex as an ``(n,)`` array."""
        self._build_adjacency()
        assert self._adj_indptr is not None
        return np.diff(self._adj_indptr)

    def degree(self, vertex: int) -> int:
        """Return the degree of ``vertex``."""
        self._build_adjacency()
        assert self._adj_indptr is not None
        return int(self._adj_indptr[vertex + 1] - self._adj_indptr[vertex])

    def max_degree(self) -> int:
        """Return the maximum degree ``∆`` (0 for an empty graph)."""
        degs = self.degrees()
        return int(degs.max()) if degs.size else 0

    def neighbors(self, vertex: int) -> np.ndarray:
        """Return the neighbours of ``vertex`` as an integer array."""
        self._build_adjacency()
        assert self._adj_indptr is not None and self._adj_indices is not None
        lo, hi = self._adj_indptr[vertex], self._adj_indptr[vertex + 1]
        return self._adj_indices[lo:hi]

    def incident_edges(self, vertex: int) -> np.ndarray:
        """Return the edge ids incident to ``vertex``."""
        self._build_adjacency()
        assert self._adj_indptr is not None and self._adj_edge_ids is not None
        lo, hi = self._adj_indptr[vertex], self._adj_indptr[vertex + 1]
        return self._adj_edge_ids[lo:hi]

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if ``{u, v}`` is an edge."""
        if u == v:
            return False
        return bool(np.isin(v, self.neighbors(u)).item())

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def induced_subgraph(self, vertices: Sequence[int] | np.ndarray) -> "Graph":
        """Return the subgraph induced on ``vertices``.

        The returned graph re-uses the *original* vertex identifiers, i.e. it
        has the same ``num_vertices`` but only keeps edges with both
        endpoints in ``vertices``.  This keeps vertex ids stable, which the
        colouring algorithms rely on.
        """
        mask = np.zeros(self._n, dtype=bool)
        mask[np.asarray(vertices, dtype=np.int64)] = True
        keep = mask[self._u] & mask[self._v]
        return self.subgraph_of_edges(np.flatnonzero(keep))

    def subgraph_of_edges(self, edge_ids: Sequence[int] | np.ndarray) -> "Graph":
        """Return the graph containing only the given edges (same vertex set)."""
        ids = np.asarray(edge_ids, dtype=np.int64)
        return Graph(
            self._n,
            np.column_stack([self._u[ids], self._v[ids]]),
            self._w[ids],
            validate=False,
        )

    def reweighted(self, weights: Sequence[float] | np.ndarray) -> "Graph":
        """Return a copy of the graph with new edge weights."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.num_edges,):
            raise ValueError("weights must have one entry per edge")
        return Graph(self._n, np.column_stack([self._u, self._v]), w, validate=False)

    def line_graph_degree_bound(self) -> int:
        """Upper bound on the maximum degree of the line graph (2∆ − 2)."""
        delta = self.max_degree()
        return max(0, 2 * delta - 2)

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(self._w.sum())

    def densification_exponent(self) -> float:
        """Return ``c`` such that ``m = n^{1+c}`` (0 for tiny graphs)."""
        if self._n <= 1 or self.num_edges <= self._n:
            return 0.0
        return float(np.log(self.num_edges) / np.log(self._n) - 1.0)

    def word_count(self) -> int:
        """Model-level size of the graph in words (three words per edge)."""
        return 3 * self.num_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._n}, m={self.num_edges})"
