"""Unit tests for the Graph representation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph


class TestConstruction:
    def test_basic_counts(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3

    def test_empty_graph(self):
        g = Graph(5, [])
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.max_degree() == 0

    def test_edges_are_canonicalized(self):
        g = Graph(4, [(3, 1), (2, 0)])
        assert g.edge_endpoints(0) == (1, 3)
        assert g.edge_endpoints(1) == (0, 2)

    def test_default_weights_are_one(self):
        g = Graph(3, [(0, 1), (1, 2)])
        np.testing.assert_allclose(g.weights, [1.0, 1.0])

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_rejects_wrong_weight_length(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1)], [1.0, 2.0])

    def test_rejects_non_finite_weights(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1)], [np.inf])

    def test_accepts_numpy_edge_array(self):
        edges = np.array([[0, 1], [1, 2]])
        g = Graph(3, edges)
        assert g.num_edges == 2


class TestAdjacency:
    def test_degrees_of_path(self, small_path):
        np.testing.assert_array_equal(small_path.degrees(), [1, 2, 2, 2, 1])

    def test_degrees_of_star(self, small_star):
        degrees = small_star.degrees()
        assert degrees[0] == 7
        assert np.all(degrees[1:] == 1)

    def test_max_degree(self, small_star, small_cycle):
        assert small_star.max_degree() == 7
        assert small_cycle.max_degree() == 2

    def test_neighbors(self, small_cycle):
        assert set(small_cycle.neighbors(0).tolist()) == {1, 5}

    def test_incident_edges_map_back_to_endpoints(self, triangle):
        for v in range(3):
            for e in triangle.incident_edges(v):
                assert v in triangle.edge_endpoints(int(e))

    def test_has_edge(self, small_path):
        assert small_path.has_edge(0, 1)
        assert small_path.has_edge(1, 0)
        assert not small_path.has_edge(0, 2)
        assert not small_path.has_edge(2, 2)

    def test_degree_single_vertex(self, small_star):
        assert small_star.degree(0) == 7
        assert small_star.degree(3) == 1


class TestDerivedGraphs:
    def test_induced_subgraph_keeps_vertex_ids(self, small_cycle):
        sub = small_cycle.induced_subgraph([0, 1, 2])
        assert sub.num_vertices == small_cycle.num_vertices
        assert sub.num_edges == 2  # edges (0,1) and (1,2)

    def test_subgraph_of_edges_preserves_order_and_weights(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [5.0, 6.0, 7.0])
        sub = g.subgraph_of_edges([2, 0])
        assert sub.num_edges == 2
        assert sub.edge_endpoints(0) == (2, 3)
        assert sub.edge_weight(0) == 7.0
        assert sub.edge_endpoints(1) == (0, 1)

    def test_reweighted(self, triangle):
        g = triangle.reweighted([9.0, 9.0, 9.0])
        np.testing.assert_allclose(g.weights, 9.0)
        # original untouched
        np.testing.assert_allclose(triangle.weights, [1.0, 2.0, 3.0])

    def test_reweighted_rejects_bad_length(self, triangle):
        with pytest.raises(ValueError):
            triangle.reweighted([1.0])


class TestMisc:
    def test_total_weight(self, triangle):
        assert triangle.total_weight() == 6.0

    def test_edges_iterator(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert edges[0] == (0, 1, 1.0)

    def test_edge_array_is_copy(self, triangle):
        arr = triangle.edge_array()
        arr[0, 0] = 99
        assert triangle.edge_endpoints(0) == (0, 1)

    def test_densification_exponent_matches_construction(self):
        n = 64
        c = 0.3
        m = int(round(n ** (1 + c)))
        rng = np.random.default_rng(0)
        from repro.graphs import gnm_graph

        g = gnm_graph(n, m, rng)
        assert abs(g.densification_exponent() - c) < 0.05

    def test_word_count(self, triangle):
        assert triangle.word_count() == 9

    def test_line_graph_degree_bound(self, small_star, small_path):
        assert small_star.line_graph_degree_bound() == 12
        assert small_path.line_graph_degree_bound() == 2


class TestStructuredGenerators:
    def test_cycle(self):
        g = cycle_graph(5)
        assert g.num_edges == 5
        assert np.all(g.degrees() == 2)

    def test_path(self):
        assert path_graph(1).num_edges == 0
        assert path_graph(4).num_edges == 3

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10
        assert np.all(g.degrees() == 4)

    def test_star(self):
        g = star_graph(4)
        assert g.num_vertices == 5
        assert g.num_edges == 4

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            path_graph(0)
        with pytest.raises(ValueError):
            star_graph(0)
