"""Unit tests for Algorithm 5 (vertex colouring)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.colouring import (
    default_num_groups,
    greedy_vertex_colouring,
    mapreduce_vertex_colouring,
)
from repro.graphs import (
    complete_graph,
    cycle_graph,
    densified_graph,
    gnm_graph,
    is_proper_vertex_colouring,
    num_colours_used,
    path_graph,
    star_graph,
    Graph,
)


class TestGreedyLocalColouring:
    def test_proper_on_structured_graphs(self):
        for g in (cycle_graph(7), star_graph(6), complete_graph(5), path_graph(9)):
            colours = greedy_vertex_colouring(g)
            assert is_proper_vertex_colouring(g, colours)
            assert num_colours_used(colours) <= g.max_degree() + 1

    def test_restricted_to_subset(self, small_cycle):
        colours = greedy_vertex_colouring(small_cycle, vertices=np.array([0, 2, 4]))
        assert set(colours) == {0, 2, 4}
        # 0,2,4 are pairwise non-adjacent in C6 so one colour suffices.
        assert num_colours_used(colours) == 1

    def test_custom_order(self, small_path):
        colours = greedy_vertex_colouring(small_path, order=np.array([4, 3, 2, 1, 0]))
        assert is_proper_vertex_colouring(small_path, colours)


class TestMapReduceVertexColouring:
    def test_proper_colouring_on_random_graphs(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            g = densified_graph(120, 0.4, rng)
            result = mapreduce_vertex_colouring(g, 0.2, rng)
            assert is_proper_vertex_colouring(g, result.colours)

    def test_colour_count_close_to_delta(self, rng):
        """(1 + o(1))∆ + κ colours; we assert the concrete Corollary 6.3 bound."""
        g = densified_graph(200, 0.45, rng)
        result = mapreduce_vertex_colouring(g, 0.25, rng)
        delta = g.max_degree()
        n = g.num_vertices
        slack = 1.0 + n ** (-0.125) * np.sqrt(6 * np.log(n)) + n ** (-0.25)
        assert result.num_colours <= slack * delta + result.num_groups

    def test_uses_fewer_colours_than_two_delta(self, rng):
        g = densified_graph(150, 0.4, rng)
        result = mapreduce_vertex_colouring(g, 0.2, rng)
        assert result.num_colours <= 2 * g.max_degree()

    def test_colours_are_group_local_pairs(self, rng):
        g = densified_graph(80, 0.4, rng)
        result = mapreduce_vertex_colouring(g, 0.2, rng, num_groups=4)
        assert result.num_groups == 4
        groups = {colour[0] for colour in result.colours.values()}
        assert groups <= set(range(4))

    def test_single_group_degenerates_to_greedy(self, rng):
        g = gnm_graph(40, 120, rng)
        result = mapreduce_vertex_colouring(g, 0.2, rng, num_groups=1)
        assert is_proper_vertex_colouring(g, result.colours)
        assert result.num_colours <= g.max_degree() + 1

    def test_every_vertex_coloured(self, rng):
        g = densified_graph(90, 0.35, rng)
        result = mapreduce_vertex_colouring(g, 0.2, rng)
        assert len(result.colours) == g.num_vertices

    def test_empty_graph(self, rng):
        result = mapreduce_vertex_colouring(Graph(0, []), 0.2, rng)
        assert result.colours == {}

    def test_edgeless_graph_single_colour_per_group(self, rng):
        g = Graph(10, [])
        result = mapreduce_vertex_colouring(g, 0.2, rng, num_groups=2)
        assert is_proper_vertex_colouring(g, result.colours)
        assert result.num_colours <= 2

    def test_iteration_trace_per_group(self, rng):
        g = densified_graph(70, 0.4, rng)
        result = mapreduce_vertex_colouring(g, 0.25, rng, num_groups=3)
        assert len(result.iterations) == 3
        assert sum(stats.sampled for stats in result.iterations) == g.num_vertices

    def test_invalid_arguments(self, rng, small_cycle):
        with pytest.raises(ValueError):
            mapreduce_vertex_colouring(small_cycle, -0.5, rng)

    def test_determinism(self):
        g = densified_graph(60, 0.4, np.random.default_rng(7))
        a = mapreduce_vertex_colouring(g, 0.2, np.random.default_rng(3))
        b = mapreduce_vertex_colouring(g, 0.2, np.random.default_rng(3))
        assert a.colours == b.colours


class TestDefaultNumGroups:
    def test_grows_with_density(self, rng):
        sparse = densified_graph(100, 0.2, rng)
        dense = densified_graph(100, 0.6, rng)
        assert default_num_groups(dense, 0.1) >= default_num_groups(sparse, 0.1)

    def test_at_least_one(self, rng, small_cycle):
        assert default_num_groups(small_cycle, 0.9) >= 1

    def test_formula(self, rng):
        g = densified_graph(100, 0.5, rng)
        c = g.densification_exponent()
        expected = int(round(100 ** ((c - 0.2) / 2)))
        assert abs(default_num_groups(g, 0.2) - expected) <= 1
