"""Unit tests for the solution certificate checkers."""

from __future__ import annotations

import numpy as np

from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    is_b_matching,
    is_clique,
    is_independent_set,
    is_matching,
    is_maximal_clique,
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_edge_colouring,
    is_proper_vertex_colouring,
    is_vertex_cover,
    matching_weight,
    num_colours_used,
    path_graph,
    star_graph,
    vertex_cover_weight,
)


class TestVertexCover:
    def test_full_vertex_set_is_cover(self, triangle):
        assert is_vertex_cover(triangle, [0, 1, 2])

    def test_two_vertices_cover_triangle(self, triangle):
        assert is_vertex_cover(triangle, [0, 1])

    def test_single_vertex_does_not_cover_triangle(self, triangle):
        assert not is_vertex_cover(triangle, [0])

    def test_star_centre_covers(self, small_star):
        assert is_vertex_cover(small_star, [0])
        assert not is_vertex_cover(small_star, [1, 2])

    def test_empty_cover_of_empty_graph(self):
        assert is_vertex_cover(Graph(4, []), [])

    def test_out_of_range_vertex_rejected(self, triangle):
        assert not is_vertex_cover(triangle, [5])

    def test_cover_weight(self):
        weights = [1.0, 2.0, 4.0]
        assert vertex_cover_weight(weights, [0, 2]) == 5.0
        assert vertex_cover_weight(weights, []) == 0.0
        assert vertex_cover_weight(weights, [1, 1]) == 2.0  # duplicates ignored


class TestMatching:
    def test_disjoint_edges_are_matching(self, small_path):
        # path 0-1-2-3-4: edges 0=(0,1),1=(1,2),2=(2,3),3=(3,4)
        assert is_matching(small_path, [0, 2])

    def test_adjacent_edges_are_not_matching(self, small_path):
        assert not is_matching(small_path, [0, 1])

    def test_empty_matching(self, small_path):
        assert is_matching(small_path, [])

    def test_invalid_edge_id(self, small_path):
        assert not is_matching(small_path, [99])

    def test_maximal_matching(self, small_path):
        assert is_maximal_matching(small_path, [0, 2])
        assert is_maximal_matching(small_path, [1, 3])
        assert not is_maximal_matching(small_path, [0])  # edge (2,3) still free

    def test_matching_weight(self, triangle):
        assert matching_weight(triangle, [2]) == 3.0
        assert matching_weight(triangle, []) == 0.0

    def test_b_matching_respects_capacities(self, small_star):
        edges = list(range(3))
        assert is_b_matching(small_star, edges, 3)
        assert not is_b_matching(small_star, edges, 2)
        assert is_b_matching(small_star, edges, {0: 3})  # leaves default to 1

    def test_b_matching_with_vector(self, small_path):
        caps = {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}
        assert is_b_matching(small_path, [0, 1, 2, 3], caps)

    def test_repeated_edge_id_is_not_a_matching(self):
        # A matching is a set of edges; a driver's weight would count the repeat.
        path = path_graph(3)
        assert not is_matching(path, [0, 0])
        assert not is_maximal_matching(path, [1, 1])

    def test_repeated_edge_id_is_not_a_b_matching(self):
        path = path_graph(3)
        assert not is_b_matching(path, [0, 0], 1)
        assert not is_b_matching(path, [0, 0], 2)  # within capacity, still a repeat


class TestIndependentSetAndClique:
    def test_alternate_vertices_of_cycle(self, small_cycle):
        assert is_independent_set(small_cycle, [0, 2, 4])
        assert is_maximal_independent_set(small_cycle, [0, 2, 4])

    def test_adjacent_vertices_are_dependent(self, small_cycle):
        assert not is_independent_set(small_cycle, [0, 1])

    def test_non_maximal_independent_set(self, small_cycle):
        assert is_independent_set(small_cycle, [0])
        assert not is_maximal_independent_set(small_cycle, [0])

    def test_empty_set_not_maximal_in_nonempty_graph(self, small_cycle):
        assert is_independent_set(small_cycle, [])
        assert not is_maximal_independent_set(small_cycle, [])

    def test_isolated_vertices_must_be_included(self):
        g = Graph(4, [(0, 1)])
        assert not is_maximal_independent_set(g, [0])
        assert is_maximal_independent_set(g, [0, 2, 3])

    def test_clique_checks(self, small_complete):
        assert is_clique(small_complete, [0, 1, 2])
        assert is_maximal_clique(small_complete, list(range(6)))
        assert not is_maximal_clique(small_complete, [0, 1, 2])

    def test_clique_in_sparse_graph(self, small_path):
        assert is_clique(small_path, [0, 1])
        assert not is_clique(small_path, [0, 1, 2])
        assert is_maximal_clique(small_path, [1, 2])

    def test_singleton_and_empty_cliques(self):
        g = Graph(3, [(0, 1)])
        assert is_clique(g, [2])
        assert is_maximal_clique(g, [2])
        assert not is_maximal_clique(g, [])


class TestColourings:
    def test_proper_vertex_colouring_of_cycle(self):
        g = cycle_graph(4)
        assert is_proper_vertex_colouring(g, {0: 0, 1: 1, 2: 0, 3: 1})
        assert not is_proper_vertex_colouring(g, {0: 0, 1: 0, 2: 1, 3: 1})

    def test_vertex_colouring_must_cover_all_vertices(self, triangle):
        assert not is_proper_vertex_colouring(triangle, {0: 0, 1: 1})

    def test_vertex_colouring_missing_a_vertex_among_n_keys(self):
        # n keys, but vertex 2 is uncoloured: a verdict, not a KeyError.
        assert not is_proper_vertex_colouring(path_graph(3), {0: 0, 1: 1, 7: 0})

    def test_vertex_colouring_accepts_sequences_and_tuple_colours(self, triangle):
        assert is_proper_vertex_colouring(triangle, [(0, 0), (0, 1), (1, 0)])

    def test_proper_edge_colouring_of_path(self, small_path):
        colours = {0: 0, 1: 1, 2: 0, 3: 1}
        assert is_proper_edge_colouring(small_path, colours)
        assert not is_proper_edge_colouring(small_path, {0: 0, 1: 0, 2: 1, 3: 1})

    def test_edge_colouring_must_cover_all_edges(self, small_path):
        assert not is_proper_edge_colouring(small_path, {0: 0, 1: 1})

    def test_star_needs_distinct_edge_colours(self):
        g = star_graph(3)
        assert is_proper_edge_colouring(g, {0: 0, 1: 1, 2: 2})
        assert not is_proper_edge_colouring(g, {0: 0, 1: 1, 2: 1})

    def test_num_colours_used(self):
        assert num_colours_used({0: "a", 1: "b", 2: "a"}) == 2
        assert num_colours_used([(0, 1), (0, 1), (1, 0)]) == 2


class TestCrossChecks:
    def test_complement_relationship_mis_vs_clique(self, rng):
        """An independent set of G is a clique of the complement."""
        from repro.graphs import gnm_graph

        g = gnm_graph(12, 30, rng)
        # complement graph
        comp_edges = [
            (u, v)
            for u in range(12)
            for v in range(u + 1, 12)
            if not g.has_edge(u, v)
        ]
        comp = Graph(12, np.asarray(comp_edges).reshape(-1, 2))
        subset = [0, 1, 2]
        assert is_independent_set(g, subset) == is_clique(comp, subset)

    def test_matched_vertices_form_vertex_cover_of_maximal_matching(self, medium_graph):
        """Classic fact: endpoints of any maximal matching form a vertex cover."""
        from repro.baselines import greedy_matching

        matching = greedy_matching(medium_graph)
        cover = set()
        for e in matching.edge_ids:
            u, v = medium_graph.edge_endpoints(e)
            cover.update((u, v))
        assert is_maximal_matching(medium_graph, matching.edge_ids)
        assert is_vertex_cover(medium_graph, cover)
