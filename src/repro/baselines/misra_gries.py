"""Misra–Gries constructive edge colouring (``∆ + 1`` colours).

The constructive proof of Vizing's theorem by Misra and Gries (1992) colours
the edges of any simple graph with at most ``∆ + 1`` colours in polynomial
time.  The paper uses it as the per-group local colouring step of its
``(1 + o(1))∆`` edge colouring algorithm (Remark 6.5), and we additionally
benchmark it as the sequential baseline for the edge colouring experiment.

The implementation follows the classical description: for each uncoloured
edge ``(u, v)`` build a maximal *fan* of ``u`` starting at ``v``, pick a
colour ``c`` free at ``u`` and a colour ``d`` free at the fan's last vertex,
invert the maximal ``cd``-path through ``u``, then rotate a prefix of the
fan and colour the last rotated edge ``d``.

The loops run on plain Python containers built once from the graph's CSR
index, so no step touches a NumPy scalar:

* ``incident[x]`` — the ``(neighbour, edge id)`` pairs of vertex ``x`` in
  :meth:`Graph.neighbors` order, the order in which a fan is scanned;
* ``ends[e]`` — edge ``e``'s endpoints, and ``colour[e]`` its colour
  (``None`` while uncoloured);
* ``at[x]`` — a dict from each colour used at ``x`` to the edge carrying it.

A fan is a list of ``(vertex, edge id)`` pairs, so rotating it needs no
endpoint-to-edge lookup.
"""

from __future__ import annotations

from ..graphs.graph import Graph

__all__ = ["misra_gries_edge_colouring"]

_Pair = tuple[int, int]


def _first_free(at_vertex: dict[int, int], num_colours: int) -> int:
    for colour in range(num_colours):
        if colour not in at_vertex:
            return colour
    raise RuntimeError("no free colour available — should be impossible with ∆+1 colours")


def _build_fan(
    incident_u: list[_Pair], colour: list[int | None], at: list[dict[int, int]], first: _Pair
) -> list[_Pair]:
    """Maximal fan of ``u`` (incidence list ``incident_u``) starting at ``first``.

    Each next fan edge's colour is free at the previous fan vertex.
    """
    fan = [first]
    in_fan = {first[0]}
    while True:
        used_at_last = at[fan[-1][0]]
        for w, e in incident_u:
            k = colour[e]
            if k is not None and k not in used_at_last and w not in in_fan:
                fan.append((w, e))
                in_fan.add(w)
                break
        else:
            return fan


def _rotatable_prefix(
    fan: list[_Pair], colour: list[int | None], at: list[dict[int, int]], d: int
) -> int:
    """Index of the first fan vertex with ``d`` free, if the prefix up to it is still a fan."""
    for i, (vertex, e) in enumerate(fan):
        if i and colour[e] in at[fan[i - 1][0]]:
            break
        if d not in at[vertex]:
            return i
    # The Misra–Gries lemma guarantees such a prefix after the cd-path
    # inversion; colouring around it would break the ∆ + 1 bound.
    raise RuntimeError("no rotatable fan prefix — should be impossible after the cd-path inversion")


def misra_gries_edge_colouring(graph: Graph) -> dict[int, int]:
    """Colour the edges of ``graph`` with at most ``∆ + 1`` colours.

    Returns a mapping from edge id to colour (integers in ``[0, ∆]``).
    """
    m = graph.num_edges
    if m == 0:
        return {}
    num_colours = graph.max_degree() + 1
    indptr, neighbours = graph.adjacency()
    _, edge_ids = graph.incidence()
    bounds = indptr.tolist()
    pairs = list(zip(neighbours.tolist(), edge_ids.tolist()))
    incident = [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    ends = list(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
    colour: list[int | None] = [None] * m
    at: list[dict[int, int]] = [{} for _ in incident]

    def paint(e: int, k: int) -> None:
        a, b = ends[e]
        colour[e] = k
        at[a][k] = e
        at[b][k] = e

    def unpaint(e: int) -> None:
        a, b = ends[e]
        k = colour[e]
        del at[a][k], at[b][k]
        colour[e] = None

    for edge in range(m):
        u, v = ends[edge]
        fan = _build_fan(incident[u], colour, at, (v, edge))
        c = _first_free(at[u], num_colours)
        d = _first_free(at[fan[-1][0]], num_colours)
        if c != d:
            # Invert the maximal path through ``u`` whose edges alternate d
            # and c (c is free at u, so the path leaves u through d).  All
            # path edges are unpainted before any is repainted, so the
            # per-vertex colour→edge dicts never hold two edges of a colour.
            path: list[int] = []
            current, k = u, d
            while (e := at[current].get(k)) is not None:
                path.append(e)
                a, b = ends[e]
                current = b if a == current else a
                k = c if k == d else d
            flipped = [(e, c if colour[e] == d else d) for e in path]
            for e in path:
                unpaint(e)
            for e, k in flipped:
                paint(e, k)
        w_index = _rotatable_prefix(fan, colour, at, d)
        # Rotate the prefix fan: shift each fan edge's colour to its predecessor.
        for (_, target), (_, e_next) in zip(fan[:w_index], fan[1 : w_index + 1]):
            k = colour[e_next]
            unpaint(e_next)
            paint(target, k)
        paint(fan[w_index][1], d)

    return dict(enumerate(colour))
