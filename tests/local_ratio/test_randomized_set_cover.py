"""Unit tests for Algorithm 1 (randomized local ratio set cover / vertex cover)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import exact_set_cover_small, exact_vertex_cover_small, lp_set_cover_bound
from repro.core.local_ratio import (
    default_eta,
    randomized_local_ratio_set_cover,
    randomized_local_ratio_vertex_cover,
)
from repro.graphs import gnm_graph, is_vertex_cover
from repro.mapreduce import AlgorithmFailureError
from repro.setcover import (
    SetCoverInstance,
    is_cover,
    random_frequency_bounded_instance,
)


class TestCorrectness:
    def test_feasible_cover(self, frequency_instance, rng):
        eta = default_eta(frequency_instance.num_sets, 0.25)
        result = randomized_local_ratio_set_cover(frequency_instance, eta, rng)
        assert is_cover(frequency_instance, result.chosen_sets)
        assert result.weight == pytest.approx(
            frequency_instance.cover_weight(result.chosen_sets)
        )

    def test_f_approximation_vs_exact(self, rng):
        for seed in range(4):
            local_rng = np.random.default_rng(seed)
            inst = random_frequency_bounded_instance(8, 60, 3, local_rng)
            _, optimum = exact_set_cover_small(inst)
            result = randomized_local_ratio_set_cover(inst, eta=20, rng=local_rng)
            assert is_cover(inst, result.chosen_sets)
            assert result.weight <= inst.frequency * optimum + 1e-9

    def test_f_approximation_vs_lp_bound_larger(self, rng):
        inst = random_frequency_bounded_instance(40, 600, 4, rng)
        result = randomized_local_ratio_set_cover(inst, eta=default_eta(40, 0.3), rng=rng)
        lp = lp_set_cover_bound(inst)
        assert is_cover(inst, result.chosen_sets)
        assert result.weight <= inst.frequency * lp + 1e-6

    def test_trivial_instance_single_set(self, rng):
        inst = SetCoverInstance([[0, 1, 2]], [4.0])
        result = randomized_local_ratio_set_cover(inst, eta=10, rng=rng)
        assert result.chosen_sets == [0]
        assert result.weight == 4.0

    def test_empty_ground_set(self, rng):
        inst = SetCoverInstance([[0]], [1.0], num_elements=1)
        sub = inst.restricted_to_elements([])  # no elements alive
        # restricted instances skip validation; the algorithm must handle m
        # elements none of which need covering only via the full instance,
        # so here we simply check the full instance still works.
        result = randomized_local_ratio_set_cover(inst, eta=5, rng=rng)
        assert is_cover(inst, result.chosen_sets)
        assert sub.num_elements == 1


class TestSamplingBehaviour:
    def test_iteration_trace_is_recorded(self, frequency_instance, rng):
        result = randomized_local_ratio_set_cover(frequency_instance, eta=40, rng=rng)
        assert result.num_iterations >= 1
        assert all(stats.alive > 0 for stats in result.iterations)
        assert all(stats.sampled <= stats.alive for stats in result.iterations)
        # alive counts strictly decrease across iterations
        alive = [stats.alive for stats in result.iterations]
        assert all(a > b for a, b in zip(alive, alive[1:]))

    def test_sample_words_bounded_by_failure_threshold_times_f(self, frequency_instance, rng):
        eta = 40
        result = randomized_local_ratio_set_cover(frequency_instance, eta, rng)
        f = frequency_instance.frequency
        for stats in result.iterations:
            assert stats.sampled <= 6 * eta
            assert stats.sample_words <= f * stats.sampled

    def test_fewer_iterations_with_larger_eta(self, rng):
        inst = random_frequency_bounded_instance(60, 4000, 3, np.random.default_rng(3))
        small = randomized_local_ratio_set_cover(inst, eta=80, rng=np.random.default_rng(1))
        large = randomized_local_ratio_set_cover(inst, eta=2000, rng=np.random.default_rng(1))
        assert large.num_iterations <= small.num_iterations

    def test_single_iteration_when_eta_dominates(self, frequency_instance, rng):
        eta = frequency_instance.num_elements  # p = 1 immediately
        result = randomized_local_ratio_set_cover(frequency_instance, eta, rng)
        assert result.num_iterations == 1

    def test_round_bound_matches_theorem(self, rng):
        """Theorem 2.3: with η = n^{1+µ} and m ≤ n^{1+c} the number of
        sampling iterations is at most ⌈c/µ⌉ + 1 (we allow +2 slack for the
        small sizes used here)."""
        n, mu = 50, 0.5
        m = 2000  # c = log_50(2000) - 1 ≈ 0.94
        inst = random_frequency_bounded_instance(n, m, 3, rng)
        eta = default_eta(n, mu)
        c = np.log(m) / np.log(n) - 1.0
        result = randomized_local_ratio_set_cover(inst, eta, rng)
        assert result.num_iterations <= int(np.ceil(c / mu)) + 2

    def test_invalid_eta(self, frequency_instance, rng):
        with pytest.raises(ValueError):
            randomized_local_ratio_set_cover(frequency_instance, 0, rng)

    def test_default_eta_formula(self):
        assert default_eta(10, 0.5) == int(round(10**1.5))
        assert default_eta(0, 0.5) == 1


class TestVertexCoverWrapper:
    def test_two_approximation(self, rng):
        for seed in range(3):
            local_rng = np.random.default_rng(seed)
            g = gnm_graph(12, 30, local_rng)
            weights = local_rng.uniform(1.0, 10.0, size=12)
            _, optimum = exact_vertex_cover_small(g, weights)
            result = randomized_local_ratio_vertex_cover(g, weights, eta=30, rng=local_rng)
            assert is_vertex_cover(g, result.chosen_sets)
            weight = float(weights[np.asarray(result.chosen_sets, dtype=np.int64)].sum())
            assert weight <= 2.0 * optimum + 1e-9

    def test_algorithm_label(self, rng):
        g = gnm_graph(10, 20, rng)
        result = randomized_local_ratio_vertex_cover(g, np.ones(10), eta=10, rng=rng)
        assert result.algorithm == "randomized-local-ratio-vertex-cover"


class TestDeterminism:
    def test_same_seed_same_result(self, frequency_instance):
        a = randomized_local_ratio_set_cover(
            frequency_instance, 50, np.random.default_rng(99)
        )
        b = randomized_local_ratio_set_cover(
            frequency_instance, 50, np.random.default_rng(99)
        )
        assert a.chosen_sets == b.chosen_sets
        assert a.num_iterations == b.num_iterations

    def test_nonconvergence_guard(self, rng, frequency_instance):
        with pytest.raises(AlgorithmFailureError):
            randomized_local_ratio_set_cover(
                frequency_instance, eta=1, rng=rng, max_iterations=1
            )
