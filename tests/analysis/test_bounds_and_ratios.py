"""Unit tests for the theoretical bound formulae and ratio helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    b_matching_bound,
    colouring_bound,
    format_table,
    harmonic,
    matching_bound,
    matching_mu0_bound,
    maximal_clique_bound,
    maximization_ratio,
    minimization_ratio,
    mis_bound,
    set_cover_f_bound,
    set_cover_greedy_bound,
    vertex_cover_bound,
    within_guarantee,
)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(3) == pytest.approx(1 + 0.5 + 1 / 3)

    def test_log_approximation(self):
        assert harmonic(1000) == pytest.approx(math.log(1000) + 0.5772, abs=0.01)


class TestBoundFormulae:
    def test_vertex_cover(self):
        bound = vertex_cover_bound(n=1000, m=31623, mu=0.25)  # m = n^1.5, so c = 0.5
        assert bound.approximation == 2.0
        assert bound.rounds == pytest.approx(0.5 / 0.25, rel=0.05)
        assert bound.space_per_machine == pytest.approx(2 * 1000**1.25)

    def test_set_cover_f_quadratic_rounds(self):
        linear = vertex_cover_bound(100, 1000, 0.2).rounds
        quadratic = set_cover_f_bound(100, 1000, 3, 0.2).rounds
        assert quadratic == pytest.approx(linear**2)

    def test_set_cover_f_space_scales_with_f(self):
        assert set_cover_f_bound(100, 1000, 6, 0.2).space_per_machine == pytest.approx(
            2 * set_cover_f_bound(100, 1000, 3, 0.2).space_per_machine
        )

    def test_greedy_set_cover_approximation(self):
        bound = set_cover_greedy_bound(1000, 100, delta=50, mu=0.3, epsilon=0.2)
        assert bound.approximation == pytest.approx(1.2 * harmonic(50))
        assert bound.rounds > 0

    def test_greedy_set_cover_approximation_floors_at_one(self):
        # ∆ = 0 (no elements): H_0 = 0, but a ratio guarantee is never below 1.
        assert set_cover_greedy_bound(220, 0, delta=0, mu=0.4, epsilon=0.2).approximation == 1.0
        # ∆ ≥ 1 keeps the exact (1+ε)·H_∆.
        assert set_cover_greedy_bound(220, 60, delta=1, mu=0.4, epsilon=0.2).approximation == 1.2

    def test_set_cover_f_approximation_floors_at_one(self):
        # f = 0 (no elements): the empty cover is optimal, so the bound is 1.
        assert set_cover_f_bound(60, 0, 0, 0.25).approximation == 1.0
        # f ≥ 1 keeps the exact f.
        assert set_cover_f_bound(60, 100, 1, 0.25).approximation == 1.0
        assert set_cover_f_bound(60, 100, 3, 0.25).approximation == 3.0

    def test_mis_simple_vs_improved(self):
        improved = mis_bound(200, 4000, 0.25)
        simple = mis_bound(200, 4000, 0.25, simple=True)
        assert improved.rounds < simple.rounds
        assert improved.space_per_machine == simple.space_per_machine

    def test_maximal_clique(self):
        bound = maximal_clique_bound(500, 0.2)
        assert bound.rounds == pytest.approx(5.0)

    def test_matching_bounds(self):
        full = matching_bound(1000, 31623, 0.25)
        linear = matching_mu0_bound(1000, 31623)
        assert full.approximation == linear.approximation == 2.0
        assert linear.rounds == pytest.approx(math.log(1000))
        assert linear.space_per_machine == 1000

    def test_b_matching_ratio_formula(self):
        assert b_matching_bound(100, 1000, 2, 0.25, 0.1).approximation == pytest.approx(2.2)
        assert b_matching_bound(100, 1000, 5, 0.25, 0.1).approximation == pytest.approx(
            3 - 0.4 + 0.2
        )
        assert b_matching_bound(100, 1000, 1, 0.25, 0.0).approximation == pytest.approx(2.0)

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    def test_b_matching_space_stays_positive_for_large_epsilon(self, epsilon):
        # log(1/ε) is 0 at ε = 1 and negative above it; the factor floors at 1.
        bound = b_matching_bound(90, 1000, 3, 0.3, epsilon)
        assert bound.space_per_machine == pytest.approx(3 * 90**1.3)

    def test_b_matching_space_unchanged_for_small_epsilon(self):
        bound = b_matching_bound(90, 1000, 3, 0.25, 0.15)
        assert bound.space_per_machine == 3 * math.log(1 / 0.15) * 90**1.25

    def test_colouring_bound_above_delta(self):
        bound = colouring_bound(500, 5000, delta=60, mu=0.25)
        assert bound.approximation > 60
        assert bound.rounds == 3.0

    def test_colouring_slack_shrinks_with_mu(self):
        loose = colouring_bound(2000, 40000, 100, 0.1).approximation
        tight = colouring_bound(2000, 40000, 100, 0.6).approximation
        assert tight < loose


class TestRatios:
    def test_minimization(self):
        assert minimization_ratio(10.0, 5.0) == 2.0
        assert minimization_ratio(0.0, 0.0) == 1.0
        assert minimization_ratio(3.0, 0.0) == float("inf")

    def test_maximization(self):
        assert maximization_ratio(5.0, 10.0) == 2.0
        assert maximization_ratio(0.0, 0.0) == 1.0
        assert maximization_ratio(0.0, 3.0) == float("inf")

    def test_within_guarantee(self):
        assert within_guarantee(1.99, 2.0)
        assert within_guarantee(2.0, 2.0)
        assert not within_guarantee(2.5, 2.0)
        assert within_guarantee(2.0000000001, 2.0)


class TestTables:
    def test_format_table_alignment(self):
        table = format_table(["a", "long_header"], [[1, 2.5], ["xy", 3.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "long_header" in lines[0]
        assert "2.500" in table
