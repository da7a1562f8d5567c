"""Unit tests for the sequential local ratio algorithms (Theorems 2.1, 5.1, D.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    exact_b_matching_small,
    exact_matching,
    exact_set_cover_small,
    exact_vertex_cover_small,
)
from repro.core.local_ratio import (
    local_ratio_b_matching,
    local_ratio_matching,
    local_ratio_set_cover,
    local_ratio_vertex_cover,
    unwind_b_matching_stack,
    unwind_matching_stack,
)
from repro.graphs import (
    Graph,
    cycle_graph,
    gnm_graph,
    is_b_matching,
    is_matching,
    is_vertex_cover,
    path_graph,
    star_graph,
)
from repro.setcover import SetCoverInstance, is_cover, random_frequency_bounded_instance


class TestSetCoverLocalRatio:
    def test_produces_feasible_cover(self, small_instance):
        result = local_ratio_set_cover(small_instance)
        assert is_cover(small_instance, result.chosen_sets)
        assert result.weight == small_instance.cover_weight(result.chosen_sets)

    def test_f_approximation_on_small_instance(self, small_instance):
        _, optimum = exact_set_cover_small(small_instance)
        result = local_ratio_set_cover(small_instance)
        assert result.weight <= small_instance.frequency * optimum + 1e-9

    def test_f_approximation_random_instances(self, rng):
        for _ in range(5):
            inst = random_frequency_bounded_instance(8, 40, 3, rng)
            _, optimum = exact_set_cover_small(inst)
            result = local_ratio_set_cover(inst, rng=rng)
            assert is_cover(inst, result.chosen_sets)
            assert result.weight <= inst.frequency * optimum + 1e-9

    def test_order_invariance_of_guarantee(self, small_instance, rng):
        """Any processing order yields a feasible f-approximation (the property
        the randomized variant relies on)."""
        _, optimum = exact_set_cover_small(small_instance)
        f = small_instance.frequency
        for _ in range(10):
            order = rng.permutation(small_instance.num_elements)
            result = local_ratio_set_cover(small_instance, order=order)
            assert is_cover(small_instance, result.chosen_sets)
            assert result.weight <= f * optimum + 1e-9

    def test_partial_order_covers_processed_elements(self, small_instance):
        result = local_ratio_set_cover(small_instance, order=[0, 1])
        covered = small_instance.covered_elements(result.chosen_sets)
        assert covered[0] and covered[1]

    def test_disjoint_sets_instance_is_exact(self):
        inst = SetCoverInstance([[0, 1], [2, 3]], [2.0, 5.0])
        result = local_ratio_set_cover(inst)
        assert sorted(result.chosen_sets) == [0, 1]
        assert result.weight == 7.0


class TestVertexCoverLocalRatio:
    def test_star_graph_picks_cheap_cover(self):
        g = star_graph(5)
        weights = np.array([1.0, 10.0, 10.0, 10.0, 10.0, 10.0])
        result = local_ratio_vertex_cover(g, weights)
        assert is_vertex_cover(g, result.chosen_sets)
        assert result.weight <= 2.0  # optimum is 1 (the centre); 2-approx allows ≤ 2

    def test_two_approximation_small_random(self, rng):
        for _ in range(5):
            g = gnm_graph(10, 22, rng)
            weights = rng.uniform(1.0, 10.0, size=10)
            _, optimum = exact_vertex_cover_small(g, weights)
            result = local_ratio_vertex_cover(g, weights, rng=rng)
            assert is_vertex_cover(g, result.chosen_sets)
            assert result.weight <= 2.0 * optimum + 1e-9

    def test_agrees_with_set_cover_encoding(self, rng):
        g = gnm_graph(12, 30, rng)
        weights = rng.uniform(1.0, 5.0, size=12)
        order = np.arange(g.num_edges)
        direct = local_ratio_vertex_cover(g, weights, order=order)
        encoded = local_ratio_set_cover(
            SetCoverInstance.from_vertex_cover(g, weights), order=order
        )
        assert sorted(direct.chosen_sets) == sorted(encoded.chosen_sets)

    def test_rejects_wrong_weight_count(self, triangle):
        with pytest.raises(ValueError):
            local_ratio_vertex_cover(triangle, [1.0])

    def test_keeps_its_label_and_chosen_order_weight(self, rng):
        g = gnm_graph(12, 30, rng)
        weights = rng.uniform(1.0, 5.0, size=12)
        result = local_ratio_vertex_cover(g, weights)
        assert result.algorithm == "local-ratio-vertex-cover-sequential"
        assert result.weight == float(weights[np.asarray(result.chosen_sets)].sum())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    def test_rejects_weights_that_are_not_positive_and_finite(self, bad):
        # Unchecked, a NaN weight yields [1, 3, 4, 5], which leaves (0, 2) uncovered.
        g = gnm_graph(6, 8, np.random.default_rng(0))
        weights = np.ones(6)
        weights[0] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            local_ratio_vertex_cover(g, weights)


class TestMatchingLocalRatio:
    def test_feasible_matching(self, weighted_graph):
        result = local_ratio_matching(weighted_graph)
        assert is_matching(weighted_graph, result.edge_ids)
        assert result.weight > 0

    def test_two_approximation_vs_exact(self, rng):
        for seed in range(4):
            g = gnm_graph(20, 60, np.random.default_rng(seed), weights="uniform")
            exact = exact_matching(g)
            result = local_ratio_matching(g, rng=rng)
            assert is_matching(g, result.edge_ids)
            assert result.weight >= exact.weight / 2.0 - 1e-9

    def test_path_with_dominant_middle_edge(self):
        # path 0-1-2-3 with middle edge much heavier: optimal picks the middle.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [1.0, 10.0, 1.0])
        result = local_ratio_matching(g, order=[1, 0, 2])
        assert result.weight >= 10.0 / 1.0 - 1e-9  # must contain the heavy edge

    def test_order_invariance_of_guarantee(self, rng):
        g = gnm_graph(14, 40, rng, weights="uniform")
        exact = exact_matching(g)
        for _ in range(10):
            result = local_ratio_matching(g, order=rng.permutation(g.num_edges))
            assert is_matching(g, result.edge_ids)
            assert result.weight >= exact.weight / 2.0 - 1e-9

    def test_unwind_stack_respects_lifo_priority(self):
        g = path_graph(3)  # edges (0,1) and (1,2) share vertex 1
        matching = unwind_matching_stack(g, [0, 1])
        assert matching == [1]  # last pushed wins

    def test_zero_weight_edges_never_selected(self):
        g = Graph(4, [(0, 1), (2, 3)], [0.0, 5.0])
        result = local_ratio_matching(g)
        assert result.edge_ids == [1]


class TestBMatchingLocalRatio:
    def test_feasibility(self, weighted_graph):
        result = local_ratio_b_matching(weighted_graph, 2, epsilon=0.1)
        assert is_b_matching(weighted_graph, result.edge_ids, 2)

    def test_b_one_matches_matching_guarantee(self, rng):
        g = gnm_graph(16, 40, rng, weights="uniform")
        exact = exact_matching(g)
        result = local_ratio_b_matching(g, 1, epsilon=0.05)
        assert is_b_matching(g, result.edge_ids, 1)
        # (3 - 2/2 + 2ε) = 2 + 2ε approximation at worst for b=1 (Theorem D.1 uses max(2,b)).
        assert result.weight >= exact.weight / (2.0 + 0.1) - 1e-9

    def test_approximation_vs_bruteforce(self, rng):
        epsilon = 0.1
        for seed in range(3):
            local_rng = np.random.default_rng(seed)
            g = gnm_graph(7, 12, local_rng, weights="uniform", weight_range=(1.0, 10.0))
            exact = exact_b_matching_small(g, 2)
            result = local_ratio_b_matching(g, 2, epsilon=epsilon, rng=local_rng)
            guarantee = 3.0 - 2.0 / 2.0 + 2.0 * epsilon
            assert is_b_matching(g, result.edge_ids, 2)
            assert result.weight >= exact.weight / guarantee - 1e-9

    def test_star_capacity_limits_selection(self):
        g = star_graph(5)
        g = g.reweighted([5.0, 4.0, 3.0, 2.0, 1.0])
        result = local_ratio_b_matching(g, {0: 2}, epsilon=0.1)
        assert is_b_matching(g, result.edge_ids, {0: 2})
        assert len(result.edge_ids) <= 2

    def test_heterogeneous_capacities(self, rng):
        g = gnm_graph(12, 30, rng, weights="uniform")
        caps = rng.integers(1, 4, size=12)
        result = local_ratio_b_matching(g, caps, epsilon=0.2)
        assert is_b_matching(g, result.edge_ids, {v: int(c) for v, c in enumerate(caps)})

    def test_unwind_b_matching_respects_capacities(self):
        g = star_graph(3)
        chosen = unwind_b_matching_stack(g, [0, 1, 2], np.array([2, 1, 1, 1]))
        assert len(chosen) == 2

    def test_invalid_arguments(self, triangle):
        with pytest.raises(ValueError):
            local_ratio_b_matching(triangle, 0)
        with pytest.raises(ValueError):
            local_ratio_b_matching(triangle, 1, epsilon=-1.0)
        with pytest.raises(ValueError):
            local_ratio_b_matching(triangle, [1, 1])
