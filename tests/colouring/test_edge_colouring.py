"""Unit tests for the edge colouring algorithm (Theorem 6.6)."""

from __future__ import annotations

import numpy as np

from repro.core.colouring import mapreduce_edge_colouring
from repro.graphs import Graph, densified_graph, gnm_graph, is_proper_edge_colouring


class TestMapReduceEdgeColouring:
    def test_proper_colouring_misra_gries_local(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            g = densified_graph(80, 0.4, rng)
            result = mapreduce_edge_colouring(g, 0.2, rng)
            assert is_proper_edge_colouring(g, result.colours)

    def test_colour_count_close_to_delta(self, rng):
        g = densified_graph(150, 0.45, rng)
        result = mapreduce_edge_colouring(g, 0.25, rng)
        delta = g.max_degree()
        n = g.num_vertices
        slack = 1.0 + n ** (-0.125) * np.sqrt(6 * np.log(n)) + n ** (-0.25)
        # per-group Misra–Gries uses ∆_i + 1 ≤ (1+o(1))∆/κ + 1 colours
        assert result.num_colours <= slack * delta + result.num_groups

    def test_fewer_colours_than_two_delta(self, rng):
        g = densified_graph(120, 0.4, rng)
        result = mapreduce_edge_colouring(g, 0.2, rng)
        assert result.num_colours <= 2 * g.max_degree()

    def test_every_edge_coloured(self, rng):
        g = densified_graph(70, 0.4, rng)
        result = mapreduce_edge_colouring(g, 0.2, rng)
        assert len(result.colours) == g.num_edges

    def test_single_group_matches_misra_gries_bound(self, rng):
        g = gnm_graph(30, 100, rng)
        result = mapreduce_edge_colouring(g, 0.2, rng, num_groups=1)
        assert is_proper_edge_colouring(g, result.colours)
        assert result.num_colours <= g.max_degree() + 1

    def test_empty_graph(self, rng):
        result = mapreduce_edge_colouring(Graph(3, []), 0.2, rng)
        assert result.colours == {}

    def test_determinism(self):
        g = densified_graph(60, 0.4, np.random.default_rng(5))
        a = mapreduce_edge_colouring(g, 0.2, np.random.default_rng(9))
        b = mapreduce_edge_colouring(g, 0.2, np.random.default_rng(9))
        assert a.colours == b.colours
