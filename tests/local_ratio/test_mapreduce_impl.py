"""Tests for the MPC drivers of the local ratio algorithms (Theorems 2.4, 5.6, D.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hungry_greedy import mpc_parameters_for_greedy_set_cover
from repro.core.local_ratio import mapreduce_impl as local_ratio_mpc
from repro.core.local_ratio import (
    mpc_parameters_for_graph,
    mpc_parameters_for_instance,
    mpc_weighted_b_matching,
    mpc_weighted_matching,
    mpc_weighted_set_cover,
    mpc_weighted_vertex_cover,
)
from repro.graphs import densified_graph, gnm_graph, is_b_matching, is_matching, is_vertex_cover
from repro.setcover import is_cover, random_coverage_instance, random_frequency_bounded_instance


class TestParameterDerivation:
    def test_graph_parameters(self, rng):
        g = densified_graph(100, 0.4, rng)
        params = mpc_parameters_for_graph(g, 0.25)
        assert params.eta == int(round(100**1.25))
        assert params.num_machines >= 1
        assert params.memory_per_machine > 3 * params.eta
        assert params.fanout >= 2
        assert params.c == pytest.approx(0.4, abs=0.05)

    def test_instance_parameters_scale_with_frequency(self, rng):
        low_f = random_frequency_bounded_instance(30, 300, 2, rng)
        high_f = random_frequency_bounded_instance(30, 300, 6, rng)
        p_low = mpc_parameters_for_instance(low_f, 0.25)
        p_high = mpc_parameters_for_instance(high_f, 0.25)
        assert p_high.memory_per_machine > p_low.memory_per_machine

    def test_more_machines_for_bigger_input(self, rng):
        small = mpc_parameters_for_graph(densified_graph(60, 0.3, rng), 0.2)
        large = mpc_parameters_for_graph(densified_graph(60, 0.6, rng), 0.2)
        assert large.num_machines >= small.num_machines

    @pytest.mark.parametrize(
        "derive",
        [
            lambda rng: mpc_parameters_for_graph(densified_graph(60, 0.4, rng), 0.25),
            lambda rng: mpc_parameters_for_instance(
                random_frequency_bounded_instance(30, 300, 3, rng), 0.25
            ),
            lambda rng: mpc_parameters_for_greedy_set_cover(
                random_coverage_instance(120, 40, rng, density=0.1), 0.4
            ),
        ],
        ids=["graph", "instance", "greedy-set-cover"],
    )
    def test_budget_reads_space_slack_at_call_time(self, derive, monkeypatch):
        default = derive(np.random.default_rng(3))
        monkeypatch.setattr(local_ratio_mpc, "SPACE_SLACK", 2 * local_ratio_mpc.SPACE_SLACK)
        doubled = derive(np.random.default_rng(3))
        assert 2 * default.memory_per_machine - 1 <= doubled.memory_per_machine
        assert doubled.memory_per_machine <= 2 * default.memory_per_machine
        assert (doubled.eta, doubled.num_machines) == (default.eta, default.num_machines)


class TestElementLoads:
    @pytest.mark.parametrize(
        "num_sets,num_elements,frequency,mu",
        [(40, 200, 3, 0.25), (50, 900, 4, 0.3), (30, 2000, 2, 0.1), (8, 60, 5, 0.5)],
    )
    def test_match_per_element_definition(self, num_sets, num_elements, frequency, mu, rng):
        inst = random_frequency_bounded_instance(num_sets, num_elements, frequency, rng)
        params = mpc_parameters_for_instance(inst, mu)
        expected = np.zeros(params.num_machines, dtype=np.int64)
        for j in range(inst.num_elements):
            machine = min(params.num_machines - 1, j // params.eta)
            expected[machine] += inst.sets_containing(j).size + 1
        loads = local_ratio_mpc._element_loads(inst, params)
        assert loads.dtype == np.int64
        np.testing.assert_array_equal(loads, expected)


class TestVertexCoverDriver:
    def test_solution_and_metrics(self, rng):
        g = densified_graph(100, 0.4, rng)
        weights = rng.uniform(1.0, 10.0, size=100)
        result, metrics = mpc_weighted_vertex_cover(g, weights, 0.25, rng)
        assert is_vertex_cover(g, result.chosen_sets)
        assert metrics.num_rounds >= 4
        assert metrics.max_space_per_machine > 0
        assert metrics.notes["f"] == 2
        assert metrics.notes["sampling_iterations"] == len(result.iterations)

    def test_rounds_scale_with_iterations(self, rng):
        g = densified_graph(100, 0.4, rng)
        weights = np.ones(100)
        result, metrics = mpc_weighted_vertex_cover(g, weights, 0.25, rng)
        # 4 rounds per sampling iteration in the f = 2 scheme.
        assert metrics.num_rounds == 4 * len(result.iterations)

    def test_space_bound_enforced(self, rng):
        """MPCContext enforces the budget: merely completing implies the
        O(f·n^{1+µ}) budget was never exceeded."""
        g = densified_graph(80, 0.5, rng)
        weights = rng.uniform(1.0, 5.0, size=80)
        _, metrics = mpc_weighted_vertex_cover(g, weights, 0.3, rng)
        budget = 16 * 2 * int(round(80**1.3))
        assert metrics.max_space_per_machine <= budget

    def test_round_count_within_theorem_shape(self, rng):
        n, c, mu = 90, 0.5, 0.25
        g = densified_graph(n, c, rng)
        weights = rng.uniform(1.0, 5.0, size=n)
        result, metrics = mpc_weighted_vertex_cover(g, weights, mu, rng)
        # O(c/µ) sampling iterations, constant rounds each; allow factor 4 + 3.
        assert len(result.iterations) <= 4 * c / mu + 3


class TestSetCoverDriver:
    def test_solution_and_metrics(self, rng):
        inst = random_frequency_bounded_instance(50, 900, 4, rng)
        result, metrics = mpc_weighted_set_cover(inst, 0.3, rng)
        assert is_cover(inst, result.chosen_sets)
        assert metrics.notes["f"] == inst.frequency
        assert metrics.num_rounds > 0

    def test_broadcast_tree_rounds_present(self, rng):
        inst = random_frequency_bounded_instance(50, 900, 4, rng)
        _, metrics = mpc_weighted_set_cover(inst, 0.3, rng)
        descriptions = " ".join(r.description for r in metrics.rounds)
        assert "broadcast" in descriptions
        assert "aggregate" in descriptions

    def test_general_f_uses_more_rounds_per_iteration_than_vc(self, rng):
        """The broadcast-tree redistribution costs extra rounds, reflecting the
        O((c/µ)²) vs O(c/µ) gap of Theorem 2.4."""
        inst = random_frequency_bounded_instance(50, 1200, 4, rng)
        result, metrics = mpc_weighted_set_cover(inst, 0.3, rng)
        rounds_per_iteration = metrics.num_rounds / max(1, len(result.iterations))
        assert rounds_per_iteration >= 4.0


class TestMatchingDriver:
    def test_solution_and_metrics(self, rng):
        g = densified_graph(100, 0.4, rng, weights="uniform")
        result, metrics = mpc_weighted_matching(g, 0.25, rng)
        assert is_matching(g, result.edge_ids)
        assert metrics.num_rounds == 4 * len(result.iterations) + 1  # +1 unwind round
        assert metrics.notes["stack_size"] == result.stack_size

    def test_space_within_budget(self, rng):
        g = densified_graph(90, 0.5, rng, weights="uniform")
        _, metrics = mpc_weighted_matching(g, 0.3, rng)
        budget = 16 * 3 * int(round(90**1.3))
        assert metrics.max_space_per_machine <= budget

    def test_eta_override_mu0(self, rng):
        g = gnm_graph(120, 700, rng, weights="uniform")
        result, metrics = mpc_weighted_matching(g, 0.05, rng, eta=120)
        assert is_matching(g, result.edge_ids)
        assert metrics.notes["eta"] == 120
        # O(log n) iterations
        assert len(result.iterations) <= 8 * int(np.ceil(np.log2(120)))

    def test_phases_follow_iterations(self, rng):
        g = densified_graph(80, 0.4, rng, weights="uniform")
        result, metrics = mpc_weighted_matching(g, 0.2, rng)
        phases = metrics.phases()
        assert phases[-1] == "unwind"
        assert len(phases) == len(result.iterations) + 1


class TestBMatchingDriver:
    def test_solution_and_metrics(self, rng):
        g = densified_graph(70, 0.4, rng, weights="uniform")
        result, metrics = mpc_weighted_b_matching(g, 3, 0.25, rng, epsilon=0.2)
        assert is_b_matching(g, result.edge_ids, 3)
        assert metrics.notes["b"] == 3
        assert metrics.notes["epsilon"] == 0.2
        assert metrics.num_rounds > 0

    def test_memory_budget_grows_with_b(self, rng):
        g = densified_graph(70, 0.4, rng, weights="uniform")
        _, metrics_b2 = mpc_weighted_b_matching(g, 2, 0.25, rng, epsilon=0.2)
        _, metrics_b5 = mpc_weighted_b_matching(g, 5, 0.25, rng, epsilon=0.2)
        # The budget grows, so a larger observed footprint is still legal;
        # MPCContext raises on any overrun, so completing is the check.
        assert metrics_b2.num_rounds > 0 and metrics_b5.num_rounds > 0
