"""The paper's shape claims read across a grid of one Figure-1 row.

Each check sweeps one parameter of a registered row (the way ``repro
ablation`` and ``repro scaling`` do, through :class:`repro.experiments.Grid`)
and compares the cells' records: rounds against µ, sampling iterations
against η = n^{1+µ} and n, inner iterations and weight against ε, and
per-machine words against µ.
"""

from __future__ import annotations

import pytest

from repro.experiments import GRIDS, Grid, find_grid, run_figure1

#: The µ grid of the ``O(c/µ)`` trade-off checks.
MUS = (0.15, 0.25, 0.4, 0.6)
#: The η exponents of the sample-budget checks, as µ = exponent − 1 (η = n^{1+µ}).
ETA_MUS = (0.05, 0.15, 0.35)
#: The ε grid of the quality-vs-rounds checks.
EPSILONS = (0.05, 0.25, 1.0)


def _sweep(seed, algorithm, param, values, **fixed):
    """The records of one grid: ``algorithm``'s row swept over ``param``."""
    return run_figure1(seed, cells=Grid(algorithm, param, tuple(values), fixed).cells())


def _metric(records, key):
    return [record.metrics[key] for record in records]


class TestMu:
    @pytest.mark.parametrize(
        "algorithm,slack", [("matching", 0), ("vertex-cover", 0), ("mis", 4)]
    )
    def test_rounds_at_largest_mu_never_exceed_smallest(self, algorithm, slack):
        """More memory per machine ⇒ fewer rounds: the O(c/µ) shape."""
        rounds = _metric(_sweep(7, algorithm, "mu", MUS, n=140, c=0.5), "rounds")
        assert rounds[-1] <= rounds[0] + slack

    def test_matching_space_at_largest_mu_holds_up(self):
        records = _sweep(7, "matching", "mu", MUS, n=140, c=0.5)
        # Space grows with µ: the largest-µ run may use more words per machine.
        space = _metric(records, "max_space_per_machine")
        assert space[-1] >= space[0] * 0.5

    def test_matching_rounds_decrease_with_mu(self):
        records = _sweep(0, "matching", "mu", (0.15, 0.5), n=100, c=0.45)
        assert len(records) == 2
        assert records[0].metrics["rounds"] >= records[1].metrics["rounds"]

    @pytest.mark.parametrize("algorithm", ["vertex-cover", "mis"])
    def test_vertex_cover_and_mis_variants(self, algorithm):
        records = _sweep(1, algorithm, "mu", (0.2, 0.4), n=80, c=0.4)
        assert all(r.metrics["rounds"] > 0 for r in records)
        assert all(r.bounds["rounds"] > 0 for r in records)


class TestSampleBudget:
    @pytest.mark.parametrize(
        "seed,n,c,mus", [(2, 100, 0.45, (0.05, 0.4)), (5, 160, 0.5, ETA_MUS)]
    )
    def test_matching_iterations_decrease_with_eta(self, seed, n, c, mus):
        """Theorem 5.5: a larger η cuts sampling iterations; quality is
        η-independent (all are 2-approximations of the same optimum)."""
        records = _sweep(seed, "matching", "mu", mus, n=n, c=c)
        iterations = _metric(records, "sampling_iterations")
        assert iterations[0] >= iterations[-1]
        weights = _metric(records, "weight")
        assert max(weights) <= 2.0 * min(weights) + 1e-9

    def test_set_cover_larger_budget_never_needs_more_iterations(self):
        records = _sweep(6, "set-cover", "mu", ETA_MUS, num_sets=80, num_elements=640)
        iterations = _metric(records, "sampling_iterations")
        assert iterations[-1] <= iterations[0]

    def test_set_cover_variant(self):
        records = _sweep(3, "set-cover", "mu", (0.05, 0.3), num_sets=60, num_elements=480)
        assert len(records) == 2
        assert all(r.metrics["weight"] > 0 for r in records)


class TestEpsilon:
    GREEDY = dict(num_sets=180, num_elements=50, density=0.08, mu=0.3)

    def test_set_cover_epsilon_sweep(self):
        records = _sweep(4, "set-cover-greedy", "epsilon", (0.1, 1.0), **self.GREEDY)
        assert len(records) == 2
        assert all(r.metrics["weight"] > 0 for r in records)

    def test_larger_epsilon_needs_no_more_inner_iterations(self):
        records = _sweep(11, "set-cover-greedy", "epsilon", EPSILONS, **self.GREEDY)
        inner = _metric(records, "inner_iterations")
        # Up to small-instance noise.
        assert inner[-1] <= inner[0] + 2

    def test_b_matching_strictest_epsilon_within_guarantee_gap(self):
        records = _sweep(12, "b-matching", "epsilon", EPSILONS, n=90, c=0.45, b=3, mu=0.3)
        # Every ε gives a positive-weight feasible solution, and the strictest
        # ε is not worse than the loosest by more than its guarantee gap.
        weights = _metric(records, "weight")
        assert min(weights) > 0
        assert weights[0] >= weights[-1] / (3.0 - 2.0 / 3.0 + 2.0 * EPSILONS[-1])

    def test_b_matching_epsilon_sweep(self):
        records = _sweep(5, "b-matching", "epsilon", (0.1, 0.5), n=60, c=0.45, b=3, mu=0.3)
        assert len(records) == 2
        assert all(r.metrics["rounds"] > 0 for r in records)


class TestScaling:
    def test_matching_iterations_stay_flat_in_n(self):
        records = _sweep(0, "matching", "n", (60, 180), c=0.45, mu=0.3)
        assert len(records) == 2
        # O(c/µ) iterations: independent of n up to small noise.
        iterations = _metric(records, "sampling_iterations")
        assert abs(iterations[0] - iterations[1]) <= 2

    def test_matching_constant_round_shape(self):
        records = _sweep(21, "matching", "n", (80, 160, 320), c=0.45, mu=0.3)
        iterations = _metric(records, "sampling_iterations")
        # Quadrupling n must not even double the iteration count.
        assert max(iterations) <= 2 * max(1.0, min(iterations)) + 1

    @pytest.mark.parametrize(
        "seed,sizes,c,mu", [(1, (60, 120), 0.4, 0.3), (22, (80, 240), 0.45, 0.35)]
    )
    def test_mis_sweeps_against_luby(self, seed, sizes, c, mu):
        for record in _sweep(seed, "mis", "n", sizes, c=c, mu=mu):
            # Hungry-greedy sweeps stay within a small factor of (and typically
            # below) Luby's log n rounds on densified graphs.
            assert record.metrics["sweeps"] <= record.metrics["luby_rounds"] + 3

    def test_vertex_cover_samples_at_least_once(self):
        records = _sweep(2, "vertex-cover", "n", (50, 100), c=0.45, mu=0.3)
        assert all(r.metrics["sampling_iterations"] >= 1 for r in records)

    @pytest.mark.parametrize("seed,n,cs", [(3, 120, (0.3, 0.6)), (23, 150, (0.3, 0.5, 0.7))])
    def test_matching_iterations_grow_with_c(self, seed, n, cs):
        iterations = _metric(_sweep(seed, "matching", "c", cs, n=n, mu=0.2), "sampling_iterations")
        assert iterations[0] <= iterations[-1] + 1

    @pytest.mark.parametrize("seed,n,mus", [(4, 120, (0.15, 0.5)), (24, 150, (0.15, 0.3, 0.5))])
    def test_matching_space_grows_with_mu(self, seed, n, mus):
        records = _sweep(seed, "matching", "mu", mus, n=n, c=0.45)
        space = _metric(records, "max_space_per_machine")
        assert space[0] <= space[-1]
        for record in records:
            # The sample is capped at 8η incidences of 3 words: 24·n^{1+µ}.
            assert record.metrics["max_space_per_machine"] <= 24 * record.bounds["space_per_machine"]


class TestTable:
    def test_every_sweep_defaults_to_its_first_grid(self):
        for (command, sweep), grids in GRIDS.items():
            assert find_grid(command, sweep) is grids[0]

    def test_unknown_pair_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="c --algorithm matching;"):
            find_grid("scaling", "c", "mis")

    def test_cells_share_their_rows_seed_and_skip_the_reference(self):
        grid = find_grid("ablation", "mu", "vertex-cover")
        cells = grid.cells()
        assert [row for row, _ in cells] == ["fig1-vertex-cover"] * len(grid.values)
        assert [params["mu"] for _, params in cells] == list(grid.values)
        assert all(params["include_lp"] is False for _, params in cells)
        [first, *rest] = run_figure1(3, cells=cells)
        # Cells that differ only in µ run on the same instance.
        assert all(r.parameters["m"] == first.parameters["m"] for r in rest)
