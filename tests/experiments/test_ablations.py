"""Tests for the ablation sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import sweep_epsilon, sweep_mu, sweep_sample_budget


#: The µ grid of the ``O(c/µ)`` trade-off checks.
MUS = (0.15, 0.25, 0.4, 0.6)
#: The η exponents of the sample-budget checks (η = n^exponent).
EXPONENTS = (1.0, 1.15, 1.35)
#: The ε grid of the quality-vs-rounds checks.
EPSILONS = (0.05, 0.25, 1.0)


class TestSweepMu:
    @pytest.mark.parametrize(
        "algorithm,slack", [("matching", 0), ("vertex-cover", 0), ("mis", 4)]
    )
    def test_rounds_at_largest_mu_never_exceed_smallest(self, algorithm, slack):
        """More memory per machine ⇒ fewer rounds: the O(c/µ) shape."""
        records = sweep_mu(np.random.default_rng(7), n=140, c=0.5, mus=MUS, algorithm=algorithm)
        assert records[-1].metrics["rounds"] <= records[0].metrics["rounds"] + slack

    def test_matching_space_at_largest_mu_holds_up(self):
        records = sweep_mu(np.random.default_rng(7), n=140, c=0.5, mus=MUS, algorithm="matching")
        # Space grows with µ: the largest-µ run may use more words per machine.
        assert (
            records[-1].metrics["max_space_per_machine"]
            >= records[0].metrics["max_space_per_machine"] * 0.5
        )

    def test_matching_rounds_decrease_with_mu(self):
        records = sweep_mu(
            np.random.default_rng(0), n=100, c=0.45, mus=(0.15, 0.5), algorithm="matching"
        )
        assert len(records) == 2
        assert records[0].metrics["rounds"] >= records[1].metrics["rounds"]

    def test_vertex_cover_and_mis_variants(self):
        for algorithm in ("vertex-cover", "mis"):
            records = sweep_mu(
                np.random.default_rng(1), n=80, c=0.4, mus=(0.2, 0.4), algorithm=algorithm
            )
            assert all(r.metrics["rounds"] > 0 for r in records)
            assert all(r.bounds["rounds"] > 0 for r in records)

    def test_invalid_algorithm(self):
        with pytest.raises(ValueError):
            sweep_mu(np.random.default_rng(0), algorithm="bogus")


class TestSweepSampleBudget:
    @pytest.mark.parametrize(
        "seed,n,c,exponents", [(2, 100, 0.45, (1.0, 1.4)), (5, 160, 0.5, EXPONENTS)]
    )
    def test_matching_iterations_decrease_with_eta(self, seed, n, c, exponents):
        """Theorem 5.5: a larger η cuts sampling iterations; quality is
        η-independent (all are 2-approximations of the same optimum)."""
        records = sweep_sample_budget(
            np.random.default_rng(seed), n=n, c=c, exponents=exponents, problem="matching"
        )
        assert records[0].metrics["iterations"] >= records[-1].metrics["iterations"]
        weights = [r.metrics["weight"] for r in records]
        assert max(weights) <= 2.0 * min(weights) + 1e-9

    def test_set_cover_larger_budget_never_needs_more_iterations(self):
        records = sweep_sample_budget(
            np.random.default_rng(6), n=80, exponents=EXPONENTS, problem="set-cover"
        )
        assert records[-1].metrics["iterations"] <= records[0].metrics["iterations"]

    def test_set_cover_variant(self):
        records = sweep_sample_budget(
            np.random.default_rng(3), n=60, exponents=(1.0, 1.3), problem="set-cover"
        )
        assert len(records) == 2
        assert all(r.metrics["weight"] > 0 for r in records)

    def test_invalid_problem(self):
        with pytest.raises(ValueError):
            sweep_sample_budget(np.random.default_rng(0), problem="bogus")


class TestSweepEpsilon:
    def test_set_cover_epsilon_sweep(self):
        records = sweep_epsilon(np.random.default_rng(4), epsilons=(0.1, 1.0), problem="set-cover")
        assert len(records) == 2
        assert all(r.metrics["weight"] > 0 for r in records)

    def test_larger_epsilon_needs_no_more_inner_iterations(self):
        records = sweep_epsilon(np.random.default_rng(11), epsilons=EPSILONS, problem="set-cover")
        # Up to small-instance noise.
        assert records[-1].metrics["inner_iterations"] <= records[0].metrics["inner_iterations"] + 2

    def test_b_matching_strictest_epsilon_within_guarantee_gap(self):
        records = sweep_epsilon(
            np.random.default_rng(12), epsilons=EPSILONS, problem="b-matching", n=90, b=3
        )
        # Every ε gives a positive-weight feasible solution, and the strictest
        # ε is not worse than the loosest by more than its guarantee gap.
        weights = [r.metrics["weight"] for r in records]
        assert min(weights) > 0
        assert weights[0] >= weights[-1] / (3.0 - 2.0 / 3.0 + 2.0 * EPSILONS[-1])

    def test_b_matching_epsilon_sweep(self):
        records = sweep_epsilon(
            np.random.default_rng(5), epsilons=(0.1, 0.5), problem="b-matching", n=60
        )
        assert len(records) == 2
        assert all(r.metrics["rounds"] > 0 for r in records)

    def test_invalid_problem(self):
        with pytest.raises(ValueError):
            sweep_epsilon(np.random.default_rng(0), problem="bogus")
