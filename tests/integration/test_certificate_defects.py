"""Planted defects: every row's certificate accepts its driver's answer and
rejects that answer with one defect planted in it.

For each registered Figure-1 row, the row's driver runs on a small instance
at three seeds and the certificate the row reports as ``valid`` must accept
the output.  Then one defect is planted in a copy of the output, and the same
certificate must reject it.  The defects are the smallest ways each answer
can be wrong: an uncovered edge or element, an undominated or dependent
vertex, a non-maximal clique, a repeated or conflicting edge, a vertex over
its capacity, and a monochromatic or uncoloured item.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

import numpy as np
import pytest

import repro.experiments  # noqa: F401 - registers the Figure-1 rows
from repro.core.colouring import mpc_edge_colouring, mpc_vertex_colouring
from repro.core.hungry_greedy import (
    mpc_greedy_set_cover,
    mpc_maximal_clique,
    mpc_maximal_independent_set,
)
from repro.core.local_ratio import (
    mpc_weighted_b_matching,
    mpc_weighted_matching,
    mpc_weighted_set_cover,
    mpc_weighted_vertex_cover,
)
from repro.graphs import (
    densified_graph,
    is_b_matching,
    is_matching,
    is_maximal_clique,
    is_maximal_independent_set,
    is_proper_edge_colouring,
    is_proper_vertex_colouring,
    is_vertex_cover,
)
from repro.registry import iter_algorithms
from repro.setcover import (
    is_cover,
    random_coverage_instance,
    random_frequency_bounded_instance,
)

SEEDS = (0, 1, 2)
N = 40
B = 3


def _graph(rng, *, c=0.45, weighted=False):
    return densified_graph(N, c, rng, weights="uniform" if weighted else None)


def _vertex_cover(rng):
    graph = _graph(rng)
    return graph, mpc_weighted_vertex_cover(graph, rng.uniform(1.0, 20.0, N), 0.25, rng)[0].chosen_sets


def _set_cover(rng):
    instance = random_frequency_bounded_instance(30, 200, 3, rng)
    return instance, mpc_weighted_set_cover(instance, 0.25, rng)[0].chosen_sets


def _set_cover_greedy(rng):
    instance = random_coverage_instance(80, 30, rng, density=0.1)
    return instance, mpc_greedy_set_cover(instance, 0.4, rng, epsilon=0.2)[0].chosen_sets


def _mis(rng):
    graph = _graph(rng)
    return graph, mpc_maximal_independent_set(graph, 0.3, rng)[0].vertices


def _clique(rng):
    graph = _graph(rng, c=0.55)
    return graph, mpc_maximal_clique(graph, 0.35, rng)[0].vertices


def _matching(rng):
    graph = _graph(rng, weighted=True)
    return graph, mpc_weighted_matching(graph, 0.25, rng)[0].edge_ids


def _matching_mu0(rng):
    graph = _graph(rng, weighted=True)
    return graph, mpc_weighted_matching(graph, 0.05, rng, eta=N)[0].edge_ids


def _b_matching(rng):
    graph = _graph(rng, weighted=True)
    return graph, mpc_weighted_b_matching(graph, B, 0.25, rng, epsilon=0.15)[0].edge_ids


def _vertex_colouring(rng):
    graph = _graph(rng)
    return graph, mpc_vertex_colouring(graph, 0.2, rng)[0].colours


def _edge_colouring(rng):
    graph = _graph(rng, c=0.4)
    return graph, mpc_edge_colouring(graph, 0.2, rng)[0].colours


#: Registry name -> (driver on a small instance, the row's certificate).
ROWS: dict[str, tuple[Callable[[Any], tuple[Any, Any]], Callable[[Any, Any], bool]]] = {
    "vertex-cover": (_vertex_cover, is_vertex_cover),
    "set-cover": (_set_cover, is_cover),
    "set-cover-greedy": (_set_cover_greedy, is_cover),
    "mis": (_mis, is_maximal_independent_set),
    "maximal-clique": (_clique, is_maximal_clique),
    "matching": (_matching, is_matching),
    "matching-mu0": (_matching_mu0, is_matching),
    "b-matching": (_b_matching, lambda graph, ids: is_b_matching(graph, ids, B)),
    "vertex-colouring": (_vertex_colouring, is_proper_vertex_colouring),
    "edge-colouring": (_edge_colouring, is_proper_edge_colouring),
}


@lru_cache(maxsize=None)
def solve(row: str, seed: int) -> tuple[Any, Any]:
    return ROWS[row][0](np.random.default_rng(seed))


# --------------------------------------------------------------------------- #
# Defects: each takes (instance, solution) and returns a broken copy
# --------------------------------------------------------------------------- #
def drop_needed_vertex(graph, cover):
    inside = set(cover)
    for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
        if (u in inside) != (v in inside):
            needed = u if u in inside else v
            return [x for x in cover if x != needed]
    raise AssertionError("no edge has exactly one endpoint in the cover")


def uncover_one_element(instance, chosen):
    containing = set(instance.sets_containing(0).tolist())
    return [s for s in chosen if s not in containing]


def drop_first(_, members):
    return list(members)[1:]


def add_neighbour_of_member(graph, members):
    for member in members:
        neighbours = graph.neighbors(member)
        if neighbours.size:
            return list(members) + [int(neighbours[0])]
    raise AssertionError("no member has a neighbour")


def repeat_edge(_, ids):
    return list(ids) + [ids[0]]


def add_adjacent_edge(graph, ids):
    chosen = set(ids)
    first = ids[0]
    for endpoint in (graph.edge_u[first], graph.edge_v[first]):
        for edge in graph.incident_edges(int(endpoint)).tolist():
            if edge not in chosen:
                return list(ids) + [edge]
    raise AssertionError("no unmatched edge touches the first matched edge")


def overfill_one_vertex(graph, ids):
    chosen = set(ids)
    load = np.bincount(
        np.concatenate([graph.edge_u[ids], graph.edge_v[ids]]), minlength=graph.num_vertices
    )
    for vertex in np.argsort(-load, kind="stable").tolist():  # saturated vertices first
        free = [e for e in graph.incident_edges(vertex).tolist() if e not in chosen]
        need = B + 1 - int(load[vertex])
        if len(free) >= need:
            return list(ids) + free[:need]
    raise AssertionError("no vertex has room to go over its capacity")


def monochromatic_edge(graph, colours):
    broken = dict(colours)
    broken[int(graph.edge_v[0])] = broken[int(graph.edge_u[0])]
    return broken


def same_colour_at_a_vertex(graph, colours):
    for vertex in range(graph.num_vertices):
        incident = graph.incident_edges(vertex).tolist()
        if len(incident) >= 2:
            broken = dict(colours)
            broken[incident[1]] = broken[incident[0]]
            return broken
    raise AssertionError("no vertex has two incident edges")


def uncolour_first(_, colours):
    broken = dict(colours)
    del broken[min(broken)]
    return broken


DEFECTS = [
    ("vertex-cover", drop_needed_vertex),
    ("set-cover", uncover_one_element),
    ("set-cover-greedy", uncover_one_element),
    ("mis", drop_first),
    ("mis", add_neighbour_of_member),
    ("maximal-clique", drop_first),
    ("matching", repeat_edge),
    ("matching", add_adjacent_edge),
    ("matching-mu0", repeat_edge),
    ("matching-mu0", add_adjacent_edge),
    ("b-matching", repeat_edge),
    ("b-matching", overfill_one_vertex),
    ("vertex-colouring", monochromatic_edge),
    ("vertex-colouring", uncolour_first),
    ("edge-colouring", same_colour_at_a_vertex),
    ("edge-colouring", uncolour_first),
]


def test_corpus_covers_every_registered_row():
    assert {row for row, _ in DEFECTS} == set(ROWS) == {
        spec.name for spec in iter_algorithms()
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "row,plant", DEFECTS, ids=[f"{row}-{plant.__name__}" for row, plant in DEFECTS]
)
def test_certificate_accepts_the_answer_and_rejects_the_planted_defect(row, plant, seed):
    instance, solution = solve(row, seed)
    certificate = ROWS[row][1]
    assert certificate(instance, solution)
    assert not certificate(instance, plant(instance, solution))
