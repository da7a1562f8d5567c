"""Unit tests for set cover instance generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.setcover import (
    cover_weight,
    disjoint_groups_instance,
    is_cover,
    planted_partition_instance,
    random_coverage_instance,
    random_frequency_bounded_instance,
    uncovered_elements,
    vertex_cover_instance,
)
from repro.graphs import gnm_graph


class TestFrequencyBounded:
    def test_frequency_bound_holds(self, rng):
        inst = random_frequency_bounded_instance(20, 200, 3, rng)
        assert inst.frequency <= 3
        assert inst.num_sets == 20
        assert inst.num_elements == 200

    def test_every_element_coverable(self, rng):
        inst = random_frequency_bounded_instance(15, 100, 2, rng)
        assert is_cover(inst, range(inst.num_sets))

    def test_frequency_one(self, rng):
        inst = random_frequency_bounded_instance(10, 50, 1, rng)
        assert inst.frequency == 1

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            random_frequency_bounded_instance(10, 50, 0, rng)
        with pytest.raises(ValueError):
            random_frequency_bounded_instance(2, 50, 5, rng)


class TestCoverage:
    def test_feasible(self, rng):
        inst = random_coverage_instance(50, 30, rng, density=0.05)
        assert is_cover(inst, range(inst.num_sets))
        assert inst.num_sets == 50 and inst.num_elements == 30

    def test_density_controls_sizes(self, rng):
        sparse = random_coverage_instance(50, 40, rng, density=0.02)
        dense = random_coverage_instance(50, 40, rng, density=0.4)
        assert dense.total_size > sparse.total_size

    def test_invalid_density(self, rng):
        with pytest.raises(ValueError):
            random_coverage_instance(10, 10, rng, density=0.0)


class TestInputValidation:
    """Generators must fail fast with clear messages, not deep inside NumPy."""

    @pytest.mark.parametrize("n", [-1, -5])
    def test_frequency_bounded_rejects_negative_elements(self, rng, n):
        with pytest.raises(
            ValueError,
            match=rf"random_frequency_bounded_instance: num_elements must be a non-negative integer, got {n}",
        ):
            random_frequency_bounded_instance(10, n, 3, rng)

    @pytest.mark.parametrize("f", [0, -2, 4.5, True])
    def test_frequency_bounded_rejects_bad_frequency(self, rng, f):
        with pytest.raises(
            ValueError,
            match=rf"random_frequency_bounded_instance: max_frequency must be a positive integer, got {f}",
        ):
            random_frequency_bounded_instance(10, 50, f, rng)

    @pytest.mark.parametrize("num_sets", [2.5, False])
    def test_frequency_bounded_rejects_fractional_or_bool_sets(self, rng, num_sets):
        with pytest.raises(ValueError, match=rf"num_sets must be a positive integer, got {num_sets}"):
            random_frequency_bounded_instance(num_sets, 50, 1, rng)

    def test_frequency_bounded_needs_max_frequency_sets(self, rng):
        with pytest.raises(
            ValueError,
            match=r"random_frequency_bounded_instance: num_sets must be at least max_frequency \(5\), got 2",
        ):
            random_frequency_bounded_instance(2, 50, 5, rng)

    @pytest.mark.parametrize("num_sets, num_elements", [(-1, 5), (3.5, 5), (True, 5), (4, -1), (4, 7.25)])
    def test_coverage_rejects_bad_sizes(self, rng, num_sets, num_elements):
        name, value = ("num_sets", num_sets) if num_elements == 5 else ("num_elements", num_elements)
        with pytest.raises(
            ValueError,
            match=rf"random_coverage_instance: {name} must be a non-negative integer, got {value}",
        ):
            random_coverage_instance(num_sets, num_elements, rng)

    def test_coverage_needs_a_set_for_any_element(self, rng):
        with pytest.raises(
            ValueError,
            match=r"random_coverage_instance: num_sets must be at least 1 when num_elements is positive",
        ):
            random_coverage_instance(0, 5, rng)

    def test_integral_floats_and_numpy_integers_build_the_same_instance(self):
        def arrays(instance):
            return [*instance.set_incidence(), instance.weights]

        want = arrays(random_frequency_bounded_instance(20, 100, 4, np.random.default_rng(3)))
        for sets, elements, f in [(20.0, 100.0, 4.0), (np.int64(20), np.int32(100), np.int64(4))]:
            got = arrays(random_frequency_bounded_instance(sets, elements, f, np.random.default_rng(3)))
            assert all(np.array_equal(a, b) for a, b in zip(want, got))
        want = arrays(random_coverage_instance(20, 30, np.random.default_rng(4)))
        got = arrays(random_coverage_instance(np.int64(20), 30.0, np.random.default_rng(4)))
        assert all(np.array_equal(a, b) for a, b in zip(want, got))

    def test_empty_coverage_instance_is_still_fine(self, rng):
        instance = random_coverage_instance(0, 0, rng)
        assert instance.num_sets == 0 and instance.num_elements == 0


class TestPlanted:
    def test_known_optimum_is_feasible(self, rng):
        inst = planted_partition_instance(8, 5, 3, rng)
        planted = list(range(8))
        assert is_cover(inst, planted)
        assert cover_weight(inst, planted) == pytest.approx(8.0)

    def test_decoys_never_cover_a_full_block(self, rng):
        inst = planted_partition_instance(4, 6, 5, rng)
        for set_id in range(4, inst.num_sets):
            assert inst.set_sizes[set_id] < 6

    def test_planted_is_optimal(self, rng):
        """With decoy weight 0.8 > 1.0/2, no decoy combination beats a planted set."""
        from repro.baselines import exact_set_cover_small

        inst = planted_partition_instance(3, 4, 1, rng)
        _, optimum = exact_set_cover_small(inst)
        assert optimum == pytest.approx(3.0)

    def test_block_size_validation(self, rng):
        with pytest.raises(ValueError):
            planted_partition_instance(3, 1, 2, rng)


class TestDisjointGroups:
    def test_structure(self):
        inst = disjoint_groups_instance(5, 4)
        assert inst.num_sets == 5
        assert inst.num_elements == 20
        assert inst.frequency == 1
        assert is_cover(inst, range(5))
        assert not is_cover(inst, range(4))

    def test_uncovered_elements_helper(self):
        inst = disjoint_groups_instance(3, 2)
        assert uncovered_elements(inst, [0, 1]) == [4, 5]
        assert uncovered_elements(inst, [0, 1, 2]) == []


class TestVertexCoverInstance:
    def test_frequency_two(self, rng):
        g = gnm_graph(20, 60, rng)
        inst, weights = vertex_cover_instance(g, rng)
        assert inst.frequency == 2
        assert inst.num_elements == g.num_edges
        assert weights.shape == (20,)

    def test_unit_weights_when_no_rng(self, rng):
        g = gnm_graph(10, 20, rng)
        inst, weights = vertex_cover_instance(g)
        np.testing.assert_allclose(weights, 1.0)

    def test_explicit_weights_passed_through(self, rng):
        g = gnm_graph(10, 20, rng)
        w = np.arange(1.0, 11.0)
        _, weights = vertex_cover_instance(g, vertex_weights=w)
        np.testing.assert_allclose(weights, w)
