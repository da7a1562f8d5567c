"""Tests for the MPC drivers of the colouring algorithms (constant-round claims)."""

from __future__ import annotations

import numpy as np

from repro.core.colouring import mpc_edge_colouring, mpc_vertex_colouring
from repro.graphs import densified_graph, is_proper_edge_colouring, is_proper_vertex_colouring


class TestVertexColouringDriver:
    def test_constant_rounds(self, rng):
        g = densified_graph(150, 0.45, rng)
        result, metrics = mpc_vertex_colouring(g, 0.2, rng)
        assert is_proper_vertex_colouring(g, result.colours)
        assert metrics.num_rounds == 3

    def test_rounds_independent_of_size(self):
        rounds = []
        for n in (60, 120, 240):
            rng = np.random.default_rng(n)
            g = densified_graph(n, 0.4, rng)
            _, metrics = mpc_vertex_colouring(g, 0.2, rng)
            rounds.append(metrics.num_rounds)
        assert len(set(rounds)) == 1  # O(1) rounds regardless of n

    def test_metrics_notes(self, rng):
        g = densified_graph(100, 0.4, rng)
        result, metrics = mpc_vertex_colouring(g, 0.25, rng)
        assert metrics.notes["kappa"] == result.num_groups
        assert metrics.notes["colours_used"] == result.num_colours
        assert metrics.notes["max_degree"] == g.max_degree()

    def test_space_budget(self, rng):
        g = densified_graph(120, 0.5, rng)
        _, metrics = mpc_vertex_colouring(g, 0.25, rng)
        assert metrics.max_space_per_machine <= 16 * int(round(120**1.25))


class TestEdgeColouringDriver:
    def test_constant_rounds(self, rng):
        g = densified_graph(100, 0.4, rng)
        result, metrics = mpc_edge_colouring(g, 0.2, rng)
        assert is_proper_edge_colouring(g, result.colours)
        assert metrics.num_rounds == 3

    def test_rounds_independent_of_size(self):
        rounds = []
        for n in (50, 100, 200):
            rng = np.random.default_rng(n)
            g = densified_graph(n, 0.4, rng)
            _, metrics = mpc_edge_colouring(g, 0.2, rng)
            rounds.append(metrics.num_rounds)
        assert len(set(rounds)) == 1
