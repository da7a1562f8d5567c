"""Tests for the Figure-1 experiment runners.

These are *integration-grade* tests: each runs the full MPC pipeline on a
small workload and checks the paper's claims — solution validity, the
approximation guarantee against an exact/LP reference, and the round/space
shape — end to end.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
import repro.experiments.figure1 as figure1
from repro.analysis import within_guarantee
from repro.cli import main
from repro.experiments import (
    GRIDS,
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
from repro.service import parse_solve_request, solve_direct


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------- #
# Shape checks: the paper's round/space/ratio claims with documented slack
# --------------------------------------------------------------------------- #
#: Seed of the larger ``test_*_shape`` cases.
SHAPE_SEED = 2020
#: Constant-factor slack applied when comparing measured rounds against the
#: leading term of a theorem's O(·) expression.  The paper's bounds hide
#: constants; a factor this size catches order-of-magnitude regressions while
#: tolerating the small problem sizes a test uses.
ROUND_SLACK = 8.0
#: Additive slack for round comparisons (relevant when the leading term is ~1).
ROUND_ADDITIVE_SLACK = 8.0
#: Constant-factor slack for space comparisons.  The theorems state O(n^{1+µ})
#: *items*; our accounting charges 3 words per edge and the sampling step may
#: legitimately ship up to 8η incidences to the central machine (Algorithm 4's
#: failure threshold), i.e. up to 24×n^{1+µ} words, so the slack must sit above
#: that constant while still catching an asymptotic regression.
SPACE_SLACK = 64.0


def assert_round_shape(record, measured_key: str = "rounds") -> None:
    """Measured rounds must be within a constant factor of the theorem's expression."""
    assert record.valid, f"{record.experiment}: solution failed validation"
    measured = record.metrics[measured_key]
    bound = record.bounds.get("rounds")
    if bound is not None:
        assert measured <= ROUND_SLACK * bound + ROUND_ADDITIVE_SLACK, (
            f"{record.experiment}: measured {measured_key}={measured} exceeds "
            f"{ROUND_SLACK}×O-bound ({bound:.2f}) + {ROUND_ADDITIVE_SLACK}"
        )


def assert_space_shape(record) -> None:
    """Measured per-machine space must respect the theorem's budget (with slack)."""
    measured = record.metrics.get("max_space_per_machine")
    bound = record.bounds.get("space_per_machine")
    if measured is not None and bound is not None:
        assert measured <= SPACE_SLACK * bound, (
            f"{record.experiment}: space {measured} exceeds {SPACE_SLACK}×{bound:.0f}"
        )


class TestCoverExperiments:
    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (1, dict(n=80, c=0.4, mu=0.25)),
            (2, dict(n=90, c=0.5, mu=0.25)),
            (SHAPE_SEED, dict(n=150, c=0.45, mu=0.25)),
            (SHAPE_SEED, dict(n=120, c=0.6, mu=0.25)),
            (SHAPE_SEED, dict(n=150, c=0.45, mu=0.45)),
        ],
        ids=["small", "small-dense", "default", "denser-graph", "large-mu"],
    )
    def test_vertex_cover_shape(self, seed, kwargs):
        record = vertex_cover_experiment(_rng(seed), **kwargs)
        assert record.valid
        assert within_guarantee(record.metrics["ratio_vs_lp"], record.bounds["approximation"])
        assert record.metrics["rounds"] >= 4
        # Tighter than ROUND_SLACK / SPACE_SLACK: the iterations track the
        # theorem's expression, and the space stays well inside its budget.
        assert record.metrics["sampling_iterations"] <= 4 * record.bounds["rounds"] + 3
        assert record.metrics["max_space_per_machine"] <= 16 * record.bounds["space_per_machine"]

    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (3, dict(num_sets=40, num_elements=500, max_frequency=3)),
            (SHAPE_SEED, dict(num_sets=60, num_elements=1200, max_frequency=3)),
            (SHAPE_SEED, dict(num_sets=60, num_elements=1200, max_frequency=5)),
            (SHAPE_SEED, dict(num_sets=80, num_elements=3000, max_frequency=4, mu=0.3)),
        ],
        ids=["small", "frequency-3", "frequency-5", "many-elements"],
    )
    def test_set_cover_f_shape(self, seed, kwargs):
        record = set_cover_f_experiment(_rng(seed), **kwargs)
        # f-approximation versus the LP lower bound.
        assert within_guarantee(record.metrics["ratio_vs_lp"], record.parameters["f"])
        assert_round_shape(record)
        assert_space_shape(record)

    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (4, dict(num_sets=150, num_elements=50)),
            (5, dict(num_sets=120, num_elements=40)),
            (SHAPE_SEED, dict(num_sets=250, num_elements=60, epsilon=0.2)),
            (SHAPE_SEED, dict(num_sets=200, num_elements=50, epsilon=0.05)),
            (SHAPE_SEED, dict(num_sets=300, num_elements=80, density=0.15, epsilon=0.3)),
        ],
        ids=["small", "smaller", "default", "small-epsilon", "dense"],
    )
    def test_set_cover_greedy_shape(self, seed, kwargs):
        record = set_cover_greedy_experiment(_rng(seed), **kwargs)
        # (1+ε)·H_∆ guarantee versus the LP lower bound
        assert within_guarantee(record.metrics["ratio_vs_lp"], record.bounds["approximation"])
        assert_round_shape(record, measured_key="inner_iterations")
        assert_space_shape(record)
        # "Who wins": the MPC ε-greedy stays within (1+ε)·H_∆ of plain greedy.
        assert record.metrics["weight"] <= 3.0 * record.metrics["greedy_weight"]


class TestIndependentSetExperiments:
    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (6, dict(n=100, c=0.4, mu=0.3)),
            (SHAPE_SEED, dict(n=200, c=0.45, mu=0.3)),
            (SHAPE_SEED, dict(n=160, c=0.6, mu=0.3)),
            (SHAPE_SEED, dict(n=220, c=0.5, mu=0.4)),
        ],
        ids=["small", "default", "dense", "vs-luby"],
    )
    def test_mis_shape(self, seed, kwargs):
        record = mis_experiment(_rng(seed), **kwargs)
        assert record.metrics["rounds"] > 0
        assert record.metrics["luby_rounds"] > 0
        assert_round_shape(record, measured_key="sweeps")
        assert_space_shape(record)
        # For m = n^{1+c} the hungry-greedy sweep count is O(c/µ), comparable
        # to (and at these sizes no more than a small factor above) Luby's
        # O(log n) round count.
        assert record.metrics["sweeps"] <= 3 * record.metrics["luby_rounds"] + 5

    @pytest.mark.parametrize(
        "seed, kwargs",
        [(7, dict(n=80, c=0.4, mu=0.3)), (SHAPE_SEED, dict(n=150, c=0.45, mu=0.35))],
        ids=["small", "default"],
    )
    def test_mis_simple_variant_shape(self, seed, kwargs):
        record = mis_experiment(_rng(seed), simple=True, **kwargs)
        assert record.valid
        assert record.experiment.endswith("simple")
        assert_space_shape(record)
        # O(1/µ²) sweeps for the simple variant.
        assert record.metrics["sweeps"] <= 8.0 / (kwargs["mu"] ** 2) + 8

    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (8, dict(n=70, c=0.5, mu=0.35)),
            (SHAPE_SEED, dict(n=120, c=0.55, mu=0.35)),
            (SHAPE_SEED, dict(n=90, c=0.7, mu=0.35)),
            (SHAPE_SEED, dict(n=120, c=0.55, mu=0.6)),
        ],
        ids=["small", "default", "dense", "large-mu"],
    )
    def test_maximal_clique_shape(self, seed, kwargs):
        record = maximal_clique_experiment(_rng(seed), **kwargs)
        assert record.metrics["clique_size"] >= 2
        assert_round_shape(record, measured_key="sweeps")
        assert_space_shape(record)


class TestMatchingExperiments:
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

    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (9, dict(n=90, c=0.4, mu=0.25)),
            (SHAPE_SEED, dict(n=150, c=0.45, mu=0.25)),
            (SHAPE_SEED, dict(n=120, c=0.6, mu=0.25)),
            (SHAPE_SEED, dict(n=140, c=0.45, mu=0.3, weight_range=(1.0, 10_000.0))),
        ],
        ids=["small", "default", "dense", "wide-weights"],
    )
    def test_matching_shape(self, seed, kwargs):
        record = matching_experiment(_rng(seed), **kwargs)
        assert within_guarantee(record.metrics["ratio_vs_optimal"], record.bounds["approximation"])
        assert_round_shape(record, measured_key="sampling_iterations")
        assert_space_shape(record)
        assert record.metrics["greedy_weight"] > 0
        assert record.metrics["filtering_weight"] > 0
        # Weight-aware local ratio vs weight-oblivious filtering on weighted input.
        assert record.metrics["weight"] >= 0.95 * record.metrics["filtering_weight"]

    @pytest.mark.parametrize(
        "seed, n", [(10, 100), (SHAPE_SEED, 200), (SHAPE_SEED, 320)], ids=["small", "200", "320"]
    )
    def test_matching_mu0_shape(self, seed, n):
        record = matching_mu0_experiment(_rng(seed), n=n, c=0.4)
        assert record.valid
        assert within_guarantee(record.metrics["ratio_vs_optimal"], record.bounds["approximation"])
        # O(log n) sampling iterations and O(n) space per machine.
        assert record.metrics["sampling_iterations"] <= 8 * np.log2(n)
        assert_space_shape(record)

    def test_matching_mu0_iterations_grow_at_most_logarithmically(self):
        small = matching_mu0_experiment(_rng(SHAPE_SEED), n=120, c=0.4)
        large = matching_mu0_experiment(_rng(99), n=360, c=0.4)
        ratio = large.metrics["sampling_iterations"] / max(1.0, small.metrics["sampling_iterations"])
        assert ratio <= 4.0

    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (11, dict(n=70, c=0.4, b=3)),
            (SHAPE_SEED, dict(n=110, c=0.45, b=2)),
            (SHAPE_SEED, dict(n=110, c=0.45, b=3)),
            (SHAPE_SEED, dict(n=90, c=0.45, b=5, epsilon=0.05)),
        ],
        ids=["small", "b2", "b3", "b5-small-epsilon"],
    )
    def test_b_matching_shape(self, seed, kwargs):
        record = b_matching_experiment(_rng(seed), **kwargs)
        assert record.metrics["ratio_vs_greedy"] <= 2.0 * record.bounds["approximation"]
        assert_round_shape(record)
        assert_space_shape(record)


class TestColouringExperiments:
    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (12, dict(n=150, c=0.4, mu=0.2)),
            (SHAPE_SEED, dict(n=300, c=0.45, mu=0.2)),
            (SHAPE_SEED, dict(n=220, c=0.6, mu=0.25)),
            (SHAPE_SEED, dict(n=260, c=0.5, mu=0.25)),
        ],
        ids=["small", "default", "dense", "vs-greedy"],
    )
    def test_vertex_colouring_shape(self, seed, kwargs):
        record = vertex_colouring_experiment(_rng(seed), **kwargs)
        delta = record.parameters["delta"]
        assert record.valid
        assert record.metrics["rounds"] == 3.0  # O(1) rounds
        # The greedy baseline uses ≤ ∆+1 colours; the MapReduce algorithm pays
        # a (1+o(1)) factor plus κ for its constant round count, and stays far
        # below the trivial 2∆.
        assert record.metrics["greedy_colours"] <= delta + 1
        assert record.metrics["colours_used"] <= record.bounds["colours"]
        assert record.metrics["colours_used"] <= 2 * delta
        assert_space_shape(record)

    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (13, dict(n=100, c=0.4, mu=0.2)),
            (SHAPE_SEED, dict(n=180, c=0.4, mu=0.2)),
            (SHAPE_SEED, dict(n=140, c=0.55, mu=0.25)),
            (SHAPE_SEED, dict(n=150, c=0.45, mu=0.25)),
        ],
        ids=["small", "default", "dense", "vs-misra-gries"],
    )
    def test_edge_colouring_shape(self, seed, kwargs):
        record = edge_colouring_experiment(_rng(seed), **kwargs)
        delta = record.parameters["delta"]
        assert record.valid
        assert record.metrics["rounds"] == 3.0
        assert record.metrics["misra_gries_colours"] <= delta + 1
        assert record.metrics["colours_used"] <= record.bounds["colours"]
        assert record.metrics["colours_used"] <= 2 * delta
        assert_space_shape(record)


class TestGridCells:
    #: The metric each row's round claim is read on, as in the row tests above.
    ROUND_KEY = {
        "fig1-matching": "sampling_iterations",
        "fig1-mis": "sweeps",
        "fig1-set-cover-greedy": "inner_iterations",
    }

    @pytest.mark.parametrize(
        "grid",
        [grid for grids in GRIDS.values() for grid in grids],
        ids=[f"{c}-{s}-{g.algorithm}" for (c, s), grids in GRIDS.items() for g in grids],
    )
    def test_preset_cells_keep_their_rows_shape(self, grid, monkeypatch):
        def reference(*args, **kwargs):
            raise AssertionError("a grid cell ran an exact or cover-LP reference")

        for name in ("exact_matching", "lp_vertex_cover_bound", "lp_set_cover_bound"):
            monkeypatch.setattr(figure1, name, reference)
        records = run_figure1(SHAPE_SEED, cells=grid.cells())
        assert [r.parameters[grid.param] for r in records] == list(grid.values)
        for record in records:
            assert_round_shape(record, self.ROUND_KEY.get(record.experiment, "rounds"))
            assert_space_shape(record)


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


class TestCertificateVerdict:
    """A failed certificate check reaches the record as ``valid: false``.

    Each row checks its answer once, with the certificate it imports into
    :mod:`repro.experiments.figure1`; patching that name to reject every
    answer must give an invalid record on each surface, not a crash.
    """

    CERTIFICATE = {
        "fig1-vertex-cover": "is_vertex_cover",
        "fig1-set-cover-f": "is_cover",
        "fig1-set-cover-greedy": "is_cover",
        "fig1-mis": "is_maximal_independent_set",
        "fig1-maximal-clique": "is_maximal_clique",
        "fig1-matching": "is_matching",
        "fig1-matching-mu0": "is_matching",
        "fig1-b-matching": "is_b_matching",
        "fig1-vertex-colouring": "is_proper_vertex_colouring",
        "fig1-edge-colouring": "is_proper_edge_colouring",
    }

    def test_every_row_has_a_certificate(self):
        assert sorted(self.CERTIFICATE) == sorted(experiment_names())

    @pytest.mark.parametrize("experiment", sorted(CERTIFICATE))
    def test_rejected_answer_is_an_invalid_record(self, experiment, monkeypatch, capsys):
        monkeypatch.setattr(figure1, self.CERTIFICATE[experiment], lambda *a, **k: False)
        assert repro.solve(experiment, seed=3).valid is False
        response = json.loads(solve_direct(parse_solve_request({"algorithm": experiment})))
        assert [record["valid"] for record in response["records"]] == [False]
        capsys.readouterr()
        assert main(["figure1", "--only", experiment, "--json"]) == 1
        records = json.loads(capsys.readouterr().out)
        assert [record["valid"] for record in records] == [False]
