"""Unit tests for the graph drivers' input placement (:func:`placement_loads`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.local_ratio.mapreduce_impl import EDGE_WORDS, placement_loads
from repro.graphs import Graph, gnm_graph

SEED = 11


@pytest.fixture
def graph(rng):
    return gnm_graph(40, 200, rng)


def _hosted_degrees(graph: Graph, machines: int, seed: int) -> np.ndarray:
    """Adjacency words per machine when vertex ``v`` lives on the machine
    ``default_rng(seed)`` draws for it: the sum of its hosted degrees."""
    vertex_machine = np.random.default_rng(seed).integers(0, machines, size=graph.num_vertices)
    expected = np.zeros(machines, dtype=np.int64)
    for vertex, degree in enumerate(graph.degrees()):
        expected[vertex_machine[vertex]] += degree
    return expected


class TestPlacementLoads:
    def test_loads_have_one_entry_per_machine(self, graph):
        loads = placement_loads(graph, 5, np.random.default_rng(SEED))
        assert loads.shape == (5,)
        assert loads.dtype == np.int64
        assert loads.max() > 0

    def test_loads_sum_to_edge_and_adjacency_words(self, graph):
        loads = placement_loads(graph, 5, np.random.default_rng(SEED))
        assert loads.sum() == (EDGE_WORDS + 2) * graph.num_edges

    def test_edges_fill_equal_blocks_next_to_hosted_degrees(self, graph):
        loads = placement_loads(graph, 5, np.random.default_rng(SEED))
        edge_words = loads - _hosted_degrees(graph, 5, SEED)
        np.testing.assert_array_equal(edge_words, [EDGE_WORDS * 40] * 5)

    def test_edge_blocks_differ_by_at_most_one_edge(self, rng):
        graph = gnm_graph(30, 151, rng)
        edge_words = placement_loads(graph, 4, np.random.default_rng(SEED)) - _hosted_degrees(
            graph, 4, SEED
        )
        assert edge_words.sum() == EDGE_WORDS * 151
        assert edge_words.max() - edge_words.min() == EDGE_WORDS

    def test_vertex_placement_is_one_draw_from_rng(self, graph):
        """The vertices' machines are one ``integers(0, M, size=n)`` draw, so
        the generator is left where that draw leaves it."""
        rng = np.random.default_rng(SEED)
        first = placement_loads(graph, 3, rng)
        np.testing.assert_array_equal(first, placement_loads(graph, 3, np.random.default_rng(SEED)))
        reference = np.random.default_rng(SEED)
        reference.integers(0, 3, size=graph.num_vertices, dtype=np.int64)
        assert rng.integers(0, 1000, size=3).tolist() == reference.integers(0, 1000, size=3).tolist()

    def test_edgeless_graph_has_no_load(self, rng):
        np.testing.assert_array_equal(placement_loads(Graph(6, []), 3, rng), np.zeros(3))

    def test_single_machine_holds_everything(self, rng):
        loads = placement_loads(gnm_graph(10, 20, rng), 1, rng)
        assert loads.tolist() == [(EDGE_WORDS + 2) * 20]
