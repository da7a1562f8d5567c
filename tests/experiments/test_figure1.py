"""Tests for the Figure-1 experiment runners.

These are *integration-grade* tests: each runs the full MPC pipeline on a
small workload and checks the paper's claims — solution validity, the
approximation guarantee against an exact/LP reference, and the round/space
shape — end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import within_guarantee
from repro.experiments import (
    b_matching_experiment,
    edge_colouring_experiment,
    matching_experiment,
    matching_mu0_experiment,
    maximal_clique_experiment,
    mis_experiment,
    run_figure1,
    set_cover_f_experiment,
    set_cover_greedy_experiment,
    vertex_colouring_experiment,
    vertex_cover_experiment,
)
from repro.registry import experiment_names


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestCoverExperiments:
    def test_vertex_cover_record(self):
        record = vertex_cover_experiment(_rng(1), n=80, c=0.4, mu=0.25)
        assert record.valid
        assert record.metrics["ratio_vs_lp"] <= record.bounds["approximation"] + 1e-9
        assert record.metrics["rounds"] >= 4
        assert record.metrics["max_space_per_machine"] <= 16 * record.bounds["space_per_machine"]

    def test_vertex_cover_iterations_track_theorem(self):
        record = vertex_cover_experiment(_rng(2), n=90, c=0.5, mu=0.25)
        assert record.metrics["sampling_iterations"] <= 4 * record.bounds["rounds"] + 3

    def test_set_cover_f_record(self):
        record = set_cover_f_experiment(_rng(3), num_sets=40, num_elements=500, max_frequency=3)
        assert record.valid
        assert record.metrics["ratio_vs_lp"] <= record.parameters["f"] + 1e-9

    def test_set_cover_greedy_record(self):
        record = set_cover_greedy_experiment(_rng(4), num_sets=150, num_elements=50)
        assert record.valid
        # (1+ε)·H_∆ guarantee versus the LP lower bound
        assert within_guarantee(record.metrics["ratio_vs_lp"], record.bounds["approximation"])

    def test_greedy_beats_or_close_to_chvatal(self):
        record = set_cover_greedy_experiment(_rng(5), num_sets=120, num_elements=40)
        assert record.metrics["weight"] <= 3.0 * record.metrics["greedy_weight"]


class TestIndependentSetExperiments:
    def test_mis_record(self):
        record = mis_experiment(_rng(6), n=100, c=0.4, mu=0.3)
        assert record.valid
        assert record.metrics["rounds"] > 0
        assert record.metrics["luby_rounds"] > 0

    def test_mis_simple_variant(self):
        record = mis_experiment(_rng(7), n=80, c=0.4, mu=0.3, simple=True)
        assert record.valid
        assert record.experiment.endswith("simple")

    def test_maximal_clique_record(self):
        record = maximal_clique_experiment(_rng(8), n=70, c=0.5, mu=0.35)
        assert record.valid
        assert record.metrics["clique_size"] >= 2


class TestMatchingExperiments:
    def test_matching_record_and_guarantee(self):
        record = matching_experiment(_rng(9), n=90, c=0.4, mu=0.25)
        assert record.valid
        assert within_guarantee(record.metrics["ratio_vs_optimal"], 2.0)
        assert record.metrics["greedy_weight"] > 0
        assert record.metrics["filtering_weight"] > 0

    def test_matching_beats_unweighted_filtering(self):
        """The weighted algorithm should (essentially always) beat the
        weight-oblivious filtering baseline on weighted inputs — this is the
        "who wins" shape of Figure 1."""
        wins = 0
        for seed in range(3):
            record = matching_experiment(_rng(20 + seed), n=90, c=0.4, mu=0.25)
            if record.metrics["weight"] >= record.metrics["filtering_weight"]:
                wins += 1
        assert wins >= 2

    def test_matching_mu0_record(self):
        record = matching_mu0_experiment(_rng(10), n=100, c=0.4)
        assert record.valid
        assert within_guarantee(record.metrics["ratio_vs_optimal"], 2.0)
        # Space bound for the µ=0 variant is O(n); allow the documented slack.
        assert record.metrics["max_space_per_machine"] <= 64 * record.parameters["n"] * 3

    def test_b_matching_record(self):
        record = b_matching_experiment(_rng(11), n=70, c=0.4, b=3)
        assert record.valid
        assert record.metrics["ratio_vs_greedy"] <= 2.0 * record.bounds["approximation"]


class TestColouringExperiments:
    def test_vertex_colouring_record(self):
        record = vertex_colouring_experiment(_rng(12), n=150, c=0.4, mu=0.2)
        assert record.valid
        assert record.metrics["rounds"] == 3.0
        assert record.metrics["colours_used"] <= record.bounds["colours"] + 1e-9
        assert record.metrics["greedy_colours"] <= record.parameters["delta"] + 1

    def test_edge_colouring_record(self):
        record = edge_colouring_experiment(_rng(13), n=100, c=0.4, mu=0.2)
        assert record.valid
        assert record.metrics["rounds"] == 3.0
        assert record.metrics["colours_used"] <= record.bounds["colours"] + 1e-9


class TestRegistry:
    def test_registry_contains_all_ten_rows(self):
        assert len(experiment_names()) == 10
        assert set(experiment_names()) >= {
            "fig1-vertex-cover",
            "fig1-matching",
            "fig1-edge-colouring",
            "fig1-b-matching",
        }

    def test_run_figure1_subset(self):
        records = run_figure1(seed=3, experiments=["fig1-vertex-colouring", "fig1-mis"])
        assert len(records) == 2
        assert all(record.valid for record in records)
