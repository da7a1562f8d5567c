"""Tests for the MPC drivers of the hungry-greedy algorithms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hungry_greedy import (
    mpc_greedy_set_cover,
    mpc_maximal_clique,
    mpc_maximal_independent_set,
    mpc_maximal_independent_set_simple,
    mpc_parameters_for_greedy_set_cover,
)
from repro.graphs import densified_graph, is_maximal_clique, is_maximal_independent_set
from repro.setcover import is_cover, random_coverage_instance


class TestMISDrivers:
    def test_improved_driver_solution_and_rounds(self, rng):
        g = densified_graph(100, 0.45, rng)
        result, metrics = mpc_maximal_independent_set(g, 0.35, rng)
        assert is_maximal_independent_set(g, result.vertices)
        assert metrics.num_rounds == 4 * len(result.iterations)
        assert metrics.notes["sweeps"] == len(result.iterations)

    def test_simple_driver_solution(self, rng):
        g = densified_graph(80, 0.4, rng)
        result, metrics = mpc_maximal_independent_set_simple(g, 0.35, rng)
        assert is_maximal_independent_set(g, result.vertices)
        assert metrics.num_rounds > 0

    def test_space_budget_respected(self, rng):
        g = densified_graph(90, 0.5, rng)
        _, metrics = mpc_maximal_independent_set(g, 0.35, rng)
        budget = 16 * 3 * int(round(90**1.35))
        assert metrics.max_space_per_machine <= budget

    def test_round_shape_improved_vs_simple(self):
        """The improved algorithm should not use more sweeps than the simple
        one on the same input (it batches all degree classes per sweep)."""
        g = densified_graph(110, 0.5, np.random.default_rng(4))
        improved, _ = mpc_maximal_independent_set(g, 0.3, np.random.default_rng(1))
        simple, _ = mpc_maximal_independent_set_simple(g, 0.3, np.random.default_rng(1))
        assert len(improved.iterations) <= len(simple.iterations) + 1


class TestCliqueDriver:
    def test_solution_and_rounds(self, rng):
        g = densified_graph(70, 0.5, rng)
        result, metrics = mpc_maximal_clique(g, 0.35, rng)
        assert is_maximal_clique(g, result.vertices)
        # relabel + sample + gather + update = 4 rounds per sweep
        assert metrics.num_rounds == 4 * len(result.iterations)

    def test_metrics_notes(self, rng):
        g = densified_graph(60, 0.5, rng)
        _, metrics = mpc_maximal_clique(g, 0.4, rng)
        assert metrics.notes["n"] == 60
        assert metrics.notes["sweeps"] >= 1


class TestGreedySetCoverDriver:
    def test_parameters(self, rng):
        inst = random_coverage_instance(150, 50, rng, density=0.08)
        params = mpc_parameters_for_greedy_set_cover(inst, 0.4)
        assert params.n == 50  # the space bound is in terms of m
        assert params.eta == int(round(50**1.4))
        assert params.memory_per_machine > params.eta

    def test_solution_and_metrics(self, rng):
        inst = random_coverage_instance(150, 50, rng, density=0.08)
        result, metrics = mpc_greedy_set_cover(inst, 0.4, rng, epsilon=0.2)
        assert is_cover(inst, result.chosen_sets)
        assert metrics.notes["inner_iterations"] == len(result.iterations)
        assert metrics.num_rounds >= len(result.iterations)

    def test_broadcast_and_aggregate_rounds_present(self, rng):
        inst = random_coverage_instance(120, 40, rng, density=0.1)
        _, metrics = mpc_greedy_set_cover(inst, 0.4, rng, epsilon=0.3)
        descriptions = " ".join(r.description for r in metrics.rounds)
        assert "broadcast" in descriptions and "aggregate" in descriptions

    @pytest.mark.parametrize(
        "num_sets,num_elements,density,mu",
        [(150, 50, 0.08, 0.4), (120, 40, 0.1, 0.3), (600, 300, 0.02, 0.2)],
    )
    def test_set_loads_match_round_robin_definition(self, num_sets, num_elements, density, mu, rng):
        inst = random_coverage_instance(num_sets, num_elements, rng, density=density)
        params = mpc_parameters_for_greedy_set_cover(inst, mu)
        expected = np.zeros(params.num_machines, dtype=np.int64)
        for set_id in range(inst.num_sets):
            expected[set_id % params.num_machines] += int(inst.set_sizes[set_id]) + 1
        _, metrics = mpc_greedy_set_cover(inst, mu, rng)
        first, gather = metrics.rounds[:2]
        assert first.max_machine_words == expected.max()
        assert gather.max_machine_words == expected.max()

    def test_epsilon_recorded(self, rng):
        inst = random_coverage_instance(100, 40, rng, density=0.1)
        _, metrics = mpc_greedy_set_cover(inst, 0.5, rng, epsilon=0.7)
        assert metrics.notes["epsilon"] == 0.7
