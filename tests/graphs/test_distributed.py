"""Unit tests for distributed graph placement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import EDGE_WORDS, DistributedGraph, Graph, gnm_graph


@pytest.fixture
def placed(rng):
    graph = gnm_graph(40, 200, rng)
    return graph, DistributedGraph(graph, 5, rng)


class TestPlacement:
    def test_every_edge_assigned_once(self, placed):
        graph, dist = placed
        assert dist.edge_machine.shape == (graph.num_edges,)
        assert dist.edge_machine.min() >= 0 and dist.edge_machine.max() < 5

    def test_every_vertex_assigned_once(self, placed):
        graph, dist = placed
        assert dist.vertex_machine.shape == (graph.num_vertices,)
        assert dist.vertex_machine.min() >= 0 and dist.vertex_machine.max() < 5

    def test_balanced_edge_placement(self, placed):
        _, dist = placed
        counts = np.bincount(dist.edge_machine, minlength=5)
        assert counts.max() - counts.min() <= 1

    def test_vertex_placement_draws_from_rng(self, rng):
        graph = gnm_graph(30, 150, rng)
        a = DistributedGraph(graph, 3, np.random.default_rng(11))
        b = DistributedGraph(graph, 3, np.random.default_rng(11))
        np.testing.assert_array_equal(a.vertex_machine, b.vertex_machine)
        np.testing.assert_array_equal(
            a.vertex_machine, np.random.default_rng(11).integers(0, 3, size=30)
        )


class TestLoads:
    def test_edge_loads_sum_to_total(self, placed):
        graph, dist = placed
        assert dist.edge_loads().sum() == EDGE_WORDS * graph.num_edges

    def test_adjacency_loads_sum_to_twice_edges(self, placed):
        graph, dist = placed
        assert dist.adjacency_loads().sum() == 2 * graph.num_edges

    def test_total_loads_are_edge_plus_adjacency(self, placed):
        graph, dist = placed
        np.testing.assert_array_equal(
            dist.total_loads(), dist.edge_loads() + dist.adjacency_loads()
        )
        assert dist.total_loads().sum() == (EDGE_WORDS + 2) * graph.num_edges

    def test_alive_mask_reduces_loads(self, placed):
        graph, dist = placed
        mask = np.zeros(graph.num_edges, dtype=bool)
        mask[:10] = True
        assert dist.edge_loads(mask).sum() == EDGE_WORDS * 10
        assert dist.adjacency_loads(mask).sum() == 20
        assert dist.total_loads(mask).max() <= dist.total_loads().max()

    def test_alive_ids_accepted_as_indices(self, placed):
        graph, dist = placed
        ids = np.arange(5)
        assert dist.edge_loads(ids).sum() == EDGE_WORDS * 5

    def test_loads_have_one_entry_per_machine(self, placed):
        _, dist = placed
        assert dist.total_loads().shape == (5,)
        assert dist.total_loads().max() > 0

    def test_edge_loads_are_equal_blocks(self, placed):
        _, dist = placed
        np.testing.assert_array_equal(dist.edge_loads(), [EDGE_WORDS * 40] * 5)

    def test_adjacency_loads_sum_degrees_of_hosted_vertices(self, placed):
        graph, dist = placed
        expected = np.zeros(5, dtype=np.int64)
        for vertex, degree in enumerate(graph.degrees()):
            expected[dist.vertex_machine[vertex]] += degree
        np.testing.assert_array_equal(dist.adjacency_loads(), expected)

    def test_boolean_mask_and_edge_ids_agree(self, placed, rng):
        graph, dist = placed
        ids = rng.choice(graph.num_edges, size=37, replace=False)
        mask = np.isin(np.arange(graph.num_edges), ids)
        np.testing.assert_array_equal(dist.total_loads(ids), dist.total_loads(mask))

    def test_no_alive_edges_means_no_load(self, placed):
        graph, dist = placed
        for alive in (np.zeros(graph.num_edges, dtype=bool), np.array([], dtype=np.int64)):
            np.testing.assert_array_equal(dist.total_loads(alive), np.zeros(5))

    def test_edgeless_graph_has_no_load(self, rng):
        dist = DistributedGraph(Graph(6, []), 3, rng)
        np.testing.assert_array_equal(dist.total_loads(), np.zeros(3))

    def test_single_machine_holds_everything(self, rng):
        dist = DistributedGraph(gnm_graph(10, 20, rng), 1, rng)
        assert dist.total_loads().tolist() == [(EDGE_WORDS + 2) * 20]
