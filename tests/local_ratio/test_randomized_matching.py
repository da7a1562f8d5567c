"""Unit tests for Algorithm 4 (randomized local ratio matching) and Algorithm 7 (b-matching)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import exact_b_matching_small, exact_matching, greedy_b_matching
from repro.core.local_ratio import (
    default_eta_for_graph,
    randomized_local_ratio_b_matching,
    randomized_local_ratio_matching,
)
from repro.graphs import (
    Graph,
    gnm_graph,
    is_b_matching,
    is_matching,
    star_graph,
)
from repro.mapreduce import AlgorithmFailureError


class TestMatchingCorrectness:
    def test_feasible_matching(self, weighted_graph, rng):
        eta = default_eta_for_graph(weighted_graph, 0.25)
        result = randomized_local_ratio_matching(weighted_graph, eta, rng)
        assert is_matching(weighted_graph, result.edge_ids)
        assert result.weight > 0

    def test_two_approximation_vs_exact(self, rng):
        for seed in range(5):
            local_rng = np.random.default_rng(seed)
            g = gnm_graph(25, 90, local_rng, weights="uniform", weight_range=(1.0, 50.0))
            exact = exact_matching(g)
            result = randomized_local_ratio_matching(g, eta=60, rng=local_rng)
            assert is_matching(g, result.edge_ids)
            assert result.weight >= exact.weight / 2.0 - 1e-9

    def test_small_eta_still_two_approximation(self, rng):
        """Even a tiny per-round budget preserves the guarantee (only the
        round count suffers)."""
        g = gnm_graph(20, 70, rng, weights="uniform")
        exact = exact_matching(g)
        result = randomized_local_ratio_matching(g, eta=5, rng=rng)
        assert result.weight >= exact.weight / 2.0 - 1e-9

    def test_unweighted_graph_returns_maximal_matching(self, medium_graph, rng):
        result = randomized_local_ratio_matching(medium_graph, eta=100, rng=rng)
        assert is_matching(medium_graph, result.edge_ids)
        # A 2-approximation for the unweighted case must be at least half the
        # maximum matching size.
        exact = exact_matching(medium_graph)
        assert len(result.edge_ids) >= len(exact.edge_ids) / 2

    def test_star_picks_heaviest_leaf(self, rng):
        g = star_graph(6).reweighted([1.0, 2.0, 3.0, 4.0, 5.0, 10.0])
        result = randomized_local_ratio_matching(g, eta=100, rng=rng)
        assert len(result.edge_ids) == 1
        assert result.weight >= 5.0  # ≥ OPT/2 = 5

    def test_empty_graph(self, rng):
        g = Graph(5, [])
        result = randomized_local_ratio_matching(g, eta=10, rng=rng)
        assert result.edge_ids == []
        assert result.weight == 0.0
        assert result.num_iterations == 0

    def test_invalid_parameters(self, weighted_graph, rng):
        with pytest.raises(ValueError):
            randomized_local_ratio_matching(weighted_graph, 0, rng)


class TestMatchingIterationBehaviour:
    def test_iteration_trace(self, weighted_graph, rng):
        result = randomized_local_ratio_matching(weighted_graph, eta=60, rng=rng)
        assert result.num_iterations >= 1
        alive = [stats.alive for stats in result.iterations]
        assert all(a > b for a, b in zip(alive, alive[1:]))
        assert result.stack_size >= len(result.edge_ids)

    def test_single_iteration_when_eta_large(self, weighted_graph, rng):
        result = randomized_local_ratio_matching(
            weighted_graph, eta=weighted_graph.num_edges, rng=rng
        )
        assert result.num_iterations == 1

    def test_round_bound_matches_theorem(self):
        """Theorem 5.5: O(c/µ) iterations with η = n^{1+µ}.  We assert a
        generous constant factor of 3 plus additive 2."""
        n, c, mu = 80, 0.5, 0.3
        rng = np.random.default_rng(0)
        g = gnm_graph(n, int(n ** (1 + c)), rng, weights="uniform")
        eta = default_eta_for_graph(g, mu)
        result = randomized_local_ratio_matching(g, eta, rng)
        assert result.num_iterations <= 3 * c / mu + 2

    def test_mu_zero_configuration_terminates_quickly(self):
        """Appendix C: with η = n the iteration count is O(log n)."""
        n = 120
        rng = np.random.default_rng(1)
        g = gnm_graph(n, 6 * n, rng, weights="uniform")
        result = randomized_local_ratio_matching(g, eta=n, rng=rng)
        assert result.num_iterations <= 8 * int(np.ceil(np.log2(n)))
        exact = exact_matching(g)
        assert result.weight >= exact.weight / 2.0 - 1e-9

    def test_determinism(self, weighted_graph):
        a = randomized_local_ratio_matching(weighted_graph, 50, np.random.default_rng(3))
        b = randomized_local_ratio_matching(weighted_graph, 50, np.random.default_rng(3))
        assert a.edge_ids == b.edge_ids

    def test_nonconvergence_guard(self, weighted_graph, rng):
        with pytest.raises(AlgorithmFailureError):
            randomized_local_ratio_matching(weighted_graph, eta=1, rng=rng, max_iterations=0)


class TestBMatching:
    def test_feasibility_various_b(self, rng):
        g = gnm_graph(30, 120, rng, weights="uniform")
        for b in (1, 2, 3, 5):
            result = randomized_local_ratio_b_matching(g, b, eta=100, rng=rng, epsilon=0.2)
            assert is_b_matching(g, result.edge_ids, b)

    def test_guarantee_vs_bruteforce(self):
        epsilon = 0.15
        for seed in range(3):
            rng = np.random.default_rng(seed)
            g = gnm_graph(7, 12, rng, weights="uniform", weight_range=(1.0, 20.0))
            exact = exact_b_matching_small(g, 2)
            result = randomized_local_ratio_b_matching(g, 2, eta=30, rng=rng, epsilon=epsilon)
            guarantee = 3.0 - 2.0 / 2.0 + 2.0 * epsilon
            assert result.weight >= exact.weight / guarantee - 1e-9

    def test_beats_or_matches_half_of_greedy(self, rng):
        """Greedy b-matching is itself a 2-approximation, so the local ratio
        result must be at least half of it under the (3−2/b+2ε) guarantee."""
        g = gnm_graph(40, 200, rng, weights="uniform")
        b = 3
        greedy = greedy_b_matching(g, b)
        result = randomized_local_ratio_b_matching(g, b, eta=200, rng=rng, epsilon=0.1)
        guarantee = 3.0 - 2.0 / b + 0.2
        assert result.weight >= greedy.weight / guarantee - 1e-9

    def test_capacity_vector(self, rng):
        g = gnm_graph(15, 50, rng, weights="uniform")
        caps = rng.integers(1, 4, size=15)
        result = randomized_local_ratio_b_matching(g, caps, eta=40, rng=rng, epsilon=0.3)
        assert is_b_matching(g, result.edge_ids, {v: int(c) for v, c in enumerate(caps)})

    def test_iteration_trace_recorded(self, rng):
        g = gnm_graph(30, 150, rng, weights="uniform")
        result = randomized_local_ratio_b_matching(g, 2, eta=20, rng=rng, epsilon=0.2)
        assert result.num_iterations >= 1
        assert all(stats.sample_words > 0 for stats in result.iterations)

    def test_invalid_parameters(self, weighted_graph, rng):
        with pytest.raises(ValueError):
            randomized_local_ratio_b_matching(weighted_graph, 2, eta=0, rng=rng)
        with pytest.raises(ValueError):
            randomized_local_ratio_b_matching(weighted_graph, 2, eta=10, rng=rng, epsilon=0.0)
        with pytest.raises(ValueError):
            randomized_local_ratio_b_matching(weighted_graph, 0, eta=10, rng=rng)
