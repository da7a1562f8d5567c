"""Certificate checkers for graph solutions.

Every algorithm result in the experiment harness is validated with one of
these independent checkers before its objective value is reported, so the
approximation-ratio numbers in EXPERIMENTS.md are backed by feasibility
certificates rather than trust in the algorithm under test.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import Graph

__all__ = [
    "is_vertex_cover",
    "is_matching",
    "is_b_matching",
    "is_maximal_matching",
    "is_independent_set",
    "is_maximal_independent_set",
    "is_clique",
    "is_maximal_clique",
    "is_proper_vertex_colouring",
    "is_proper_edge_colouring",
    "num_colours_used",
    "matching_weight",
    "vertex_cover_weight",
]


def _as_vertex_set(vertices: Iterable[int]) -> set[int]:
    return {int(v) for v in vertices}


def _as_edge_id_array(edge_ids: Iterable[int]) -> np.ndarray:
    return np.asarray(sorted({int(e) for e in edge_ids}), dtype=np.int64)


def _edge_set(graph: Graph, edge_ids: Iterable[int]) -> np.ndarray | None:
    """The ids as an array, or ``None`` if one is not an edge or repeats.

    A (b-)matching is a set of edges, so a repeated id is a defect, not a
    duplicate to drop: a driver's weight counts every id it returns.
    """
    ids = np.asarray([int(e) for e in edge_ids], dtype=np.int64)
    if ids.size and (
        ids.min() < 0 or ids.max() >= graph.num_edges or np.unique(ids).size < ids.size
    ):
        return None
    return ids


# --------------------------------------------------------------------------- #
# Covers
# --------------------------------------------------------------------------- #
def is_vertex_cover(graph: Graph, cover: Iterable[int]) -> bool:
    """Return ``True`` if every edge has at least one endpoint in ``cover``."""
    cover_set = _as_vertex_set(cover)
    if any(v < 0 or v >= graph.num_vertices for v in cover_set):
        return False
    mask = np.zeros(graph.num_vertices, dtype=bool)
    if cover_set:
        mask[np.fromiter(cover_set, dtype=np.int64)] = True
    return bool(np.all(mask[graph.edge_u] | mask[graph.edge_v]))


def vertex_cover_weight(weights: Sequence[float] | np.ndarray, cover: Iterable[int]) -> float:
    """Total weight of a vertex cover under per-vertex ``weights``."""
    w = np.asarray(weights, dtype=np.float64)
    cover_idx = np.fromiter(_as_vertex_set(cover), dtype=np.int64) if cover else np.empty(0, np.int64)
    return float(w[cover_idx].sum()) if cover_idx.size else 0.0


# --------------------------------------------------------------------------- #
# Matchings
# --------------------------------------------------------------------------- #
def is_matching(graph: Graph, edge_ids: Iterable[int]) -> bool:
    """Return ``True`` if the edges are distinct and pairwise vertex-disjoint."""
    ids = _edge_set(graph, edge_ids)
    if ids is None:
        return False
    endpoints = np.concatenate([graph.edge_u[ids], graph.edge_v[ids]]) if ids.size else np.empty(0)
    return len(np.unique(endpoints)) == len(endpoints)


def is_b_matching(graph: Graph, edge_ids: Iterable[int], b: Mapping[int, int] | int) -> bool:
    """Return ``True`` if the edges are distinct and each vertex ``v`` is in at most ``b(v)``."""
    ids = _edge_set(graph, edge_ids)
    if ids is None:
        return False
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    if ids.size:
        np.add.at(counts, graph.edge_u[ids], 1)
        np.add.at(counts, graph.edge_v[ids], 1)
    if isinstance(b, Mapping):
        limits = np.array([int(b.get(v, 1)) for v in range(graph.num_vertices)], dtype=np.int64)
    else:
        limits = np.full(graph.num_vertices, int(b), dtype=np.int64)
    return bool(np.all(counts <= limits))


def is_maximal_matching(graph: Graph, edge_ids: Iterable[int]) -> bool:
    """Return ``True`` if the matching cannot be extended by any edge."""
    ids = _edge_set(graph, edge_ids)
    if ids is None or not is_matching(graph, ids):
        return False
    matched = np.zeros(graph.num_vertices, dtype=bool)
    if ids.size:
        matched[graph.edge_u[ids]] = True
        matched[graph.edge_v[ids]] = True
    free_edge = ~matched[graph.edge_u] & ~matched[graph.edge_v]
    return not bool(free_edge.any())


def matching_weight(graph: Graph, edge_ids: Iterable[int]) -> float:
    """Total weight of the given edges (no feasibility check)."""
    ids = _as_edge_id_array(edge_ids)
    return float(graph.weights[ids].sum()) if ids.size else 0.0


# --------------------------------------------------------------------------- #
# Independent sets and cliques
# --------------------------------------------------------------------------- #
def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """Return ``True`` if no edge has both endpoints in ``vertices``."""
    vset = _as_vertex_set(vertices)
    if any(v < 0 or v >= graph.num_vertices for v in vset):
        return False
    mask = np.zeros(graph.num_vertices, dtype=bool)
    if vset:
        mask[np.fromiter(vset, dtype=np.int64)] = True
    return not bool(np.any(mask[graph.edge_u] & mask[graph.edge_v]))


def is_maximal_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """Return ``True`` if ``vertices`` is independent and no vertex can be added."""
    vset = _as_vertex_set(vertices)
    if not is_independent_set(graph, vset):
        return False
    mask = np.zeros(graph.num_vertices, dtype=bool)
    if vset:
        mask[np.fromiter(vset, dtype=np.int64)] = True
    # A vertex outside the set must have a neighbour inside the set.
    dominated = np.zeros(graph.num_vertices, dtype=bool)
    dominated[graph.edge_u[mask[graph.edge_v]]] = True
    dominated[graph.edge_v[mask[graph.edge_u]]] = True
    outside = ~mask
    return bool(np.all(dominated[outside] | ~outside[outside])) if outside.any() else True


def is_clique(graph: Graph, vertices: Iterable[int]) -> bool:
    """Return ``True`` if every pair of the given vertices is adjacent."""
    vset = _as_vertex_set(vertices)
    if any(v < 0 or v >= graph.num_vertices for v in vset):
        return False
    k = len(vset)
    if k <= 1:
        return True
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[np.fromiter(vset, dtype=np.int64)] = True
    internal_edges = int(np.sum(mask[graph.edge_u] & mask[graph.edge_v]))
    return internal_edges == k * (k - 1) // 2


def is_maximal_clique(graph: Graph, vertices: Iterable[int]) -> bool:
    """Return ``True`` if ``vertices`` is a clique and no vertex is adjacent to all of it."""
    vset = _as_vertex_set(vertices)
    if not is_clique(graph, vset):
        return False
    k = len(vset)
    mask = np.zeros(graph.num_vertices, dtype=bool)
    if vset:
        mask[np.fromiter(vset, dtype=np.int64)] = True
    for candidate in range(graph.num_vertices):
        if mask[candidate]:
            continue
        neighbours = graph.neighbors(candidate)
        if neighbours.size and int(np.sum(mask[neighbours])) == k and k > 0:
            return False
        if k == 0:
            # Empty "clique" is never maximal in a non-empty graph.
            return False
    return True


# --------------------------------------------------------------------------- #
# Colourings
# --------------------------------------------------------------------------- #
def is_proper_vertex_colouring(graph: Graph, colours: Mapping[int, object] | Sequence[object]) -> bool:
    """Return ``True`` if every vertex is coloured and no edge is monochromatic."""
    if isinstance(colours, Mapping):
        if len(colours) < graph.num_vertices:
            return False
        lookup = colours
    else:
        if len(colours) < graph.num_vertices:
            return False
        lookup = {v: colours[v] for v in range(graph.num_vertices)}
    if any(lookup.get(v) is None for v in range(graph.num_vertices)):
        return False  # an uncoloured vertex
    for u, v, _ in graph.edges():
        if lookup[u] == lookup[v]:
            return False
    return True


def is_proper_edge_colouring(graph: Graph, colours: Mapping[int, object] | Sequence[object]) -> bool:
    """Return ``True`` if every edge is coloured and incident edges differ in colour."""
    if isinstance(colours, Mapping):
        lookup = colours
        if len(lookup) < graph.num_edges:
            return False
    else:
        if len(colours) < graph.num_edges:
            return False
        lookup = {e: colours[e] for e in range(graph.num_edges)}
    for v in range(graph.num_vertices):
        incident = graph.incident_edges(v)
        seen = set()
        for e in incident:
            colour = lookup.get(int(e))
            if colour is None:
                return False
            if colour in seen:
                return False
            seen.add(colour)
    return True


def num_colours_used(colours: Mapping[object, object] | Sequence[object]) -> int:
    """Number of distinct colours in a colouring."""
    values = colours.values() if isinstance(colours, Mapping) else colours
    return len(set(values))
