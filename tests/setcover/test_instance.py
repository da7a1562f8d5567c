"""Unit tests for SetCoverInstance."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.mapreduce import InfeasibleInstanceError
from repro.setcover import SetCoverInstance
from repro.graphs import Graph, star_graph, cycle_graph
from repro.graphs.generators import gnm_graph


class TestConstruction:
    def test_basic_counts(self, small_instance):
        assert small_instance.num_sets == 5
        assert small_instance.num_elements == 4

    def test_default_weights(self):
        inst = SetCoverInstance([[0], [0, 1]])
        np.testing.assert_allclose(inst.weights, 1.0)

    def test_duplicate_elements_within_set_are_merged(self):
        inst = SetCoverInstance([[0, 0, 1]], num_elements=2)
        assert inst.set_sizes[0] == 2

    def test_num_elements_inferred(self):
        inst = SetCoverInstance([[0, 5], [1, 2, 3, 4]])
        assert inst.num_elements == 6

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            SetCoverInstance([[0]], [0.0])
        with pytest.raises(ValueError):
            SetCoverInstance([[0]], [-1.0])

    def test_rejects_out_of_range_elements(self):
        with pytest.raises(ValueError):
            SetCoverInstance([[5]], num_elements=3)

    def test_rejects_uncoverable_elements(self):
        with pytest.raises(InfeasibleInstanceError):
            SetCoverInstance([[0]], num_elements=2)

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(ValueError):
            SetCoverInstance([[0], [1]], [1.0])


class TestStructure:
    def test_dual_view(self, small_instance):
        assert set(small_instance.sets_containing(0).tolist()) == {0, 1, 4}
        assert set(small_instance.sets_containing(3).tolist()) == {2, 3, 4}

    def test_frequency(self, small_instance):
        assert small_instance.frequency == 3

    def test_max_set_size(self, small_instance):
        assert small_instance.max_set_size == 4

    def test_weight_ratio(self, small_instance):
        assert small_instance.weight_ratio == pytest.approx(3.5)

    def test_total_size(self, small_instance):
        assert small_instance.total_size == 3 + 2 + 2 + 1 + 4

    def test_word_count(self, small_instance):
        assert small_instance.word_count() == small_instance.total_size + 5


class TestSolutions:
    def test_cover_weight(self, small_instance):
        assert small_instance.cover_weight([1, 2]) == pytest.approx(3.0)
        assert small_instance.cover_weight([]) == 0.0
        assert small_instance.cover_weight([1, 1]) == pytest.approx(1.5)

    def test_is_cover(self, small_instance):
        assert small_instance.is_cover([4])
        assert small_instance.is_cover([1, 2])
        assert not small_instance.is_cover([1])
        assert not small_instance.is_cover([])

    def test_covered_elements_mask(self, small_instance):
        mask = small_instance.covered_elements([1])
        np.testing.assert_array_equal(mask, [True, True, False, False])


class TestConversionsAndRestriction:
    def test_from_vertex_cover_star(self):
        g = star_graph(4)
        inst = SetCoverInstance.from_vertex_cover(g, np.ones(5))
        assert inst.num_sets == g.num_vertices
        assert inst.num_elements == g.num_edges
        assert inst.frequency == 2
        # centre's set contains every edge
        assert inst.set_sizes[0] == 4

    def test_from_vertex_cover_cover_semantics(self):
        g = cycle_graph(5)
        inst = SetCoverInstance.from_vertex_cover(g, np.ones(5))
        # vertices 0,1,2,3 cover all 5 edges of C5
        assert inst.is_cover([0, 1, 2, 3])
        assert not inst.is_cover([0, 1])

    def test_restricted_to_elements(self, small_instance):
        sub = small_instance.restricted_to_elements([0, 1])
        assert sub.num_elements == small_instance.num_elements
        assert sub.set_sizes[2] == 0  # set {2,3} has no surviving elements
        assert sub.set_sizes[1] == 2

    def test_restriction_preserves_weights(self, small_instance):
        sub = small_instance.restricted_to_elements([3])
        np.testing.assert_allclose(sub.weights, small_instance.weights)


def _arrays_digest(instance: SetCoverInstance) -> str:
    """sha256 over both CSR indexes, the weights, the set sizes and every set."""
    arrays = [
        *instance.set_incidence(),
        *instance.element_incidence(),
        instance.weights,
        instance.set_sizes,
        *(instance.set_elements(i) for i in range(instance.num_sets)),
    ]
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(repr((array.dtype.str, array.shape)).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _shuffled_graph() -> Graph:
    """Edges in a random order and given as (v, u), so edge ids skip around."""
    dense = gnm_graph(30, 120, np.random.default_rng(5))
    perm = np.random.default_rng(6).permutation(120)
    return Graph(30, np.column_stack([dense.edge_v[perm], dense.edge_u[perm]]))


class TestFromVertexCoverPinned:
    """``from_vertex_cover``'s arrays and errors, recorded from the per-set encoding.

    The encoding builds the primal CSR from the edge arrays directly; these
    digests were recorded while it still normalised one incident-edge list
    per vertex, so they pin every array (dtype, shape and bytes) it exposes.
    """

    CASES = {
        "empty": (lambda: Graph(0, []), None),
        "edgeless": (lambda: Graph(5, []), [1.0, 2.0, 3.0, 4.0, 5.0]),
        "star-none": (lambda: star_graph(6), None),
        "cycle-list": (lambda: cycle_graph(7), [float(i + 1) for i in range(7)]),
        "shuffled-array": (
            _shuffled_graph,
            np.random.default_rng(7).uniform(1.0, 9.0, 30),
        ),
    }
    EXPECTED = {
        "empty": (0, 0, 0, "966f1804e7de3e60925055f4fbe54c1652add94b44e63cbfc01a401e3fa60c19"),
        "edgeless": (5, 0, 0, "e5a138d63ac6161ad9430fa221166ffd546d4c639451e65bea55da5d1d9eb566"),
        "star-none": (7, 6, 2, "05c95317fbcd6fc44faf05e3e5453132962b5305aad2548c9e048d5c80a15b1d"),
        "cycle-list": (7, 7, 2, "790497a116070e483adf43823c23fffdd5e9deb03a9c78e5c1c28ab630bf08cf"),
        "shuffled-array": (
            30, 120, 2, "de9cf784f9f4affc5353914e38c4acf7320bb26b3c6e3e2935cec9bafab29654"
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_arrays(self, case):
        build, weights = self.CASES[case]
        instance = SetCoverInstance.from_vertex_cover(build(), weights)
        observed = (
            instance.num_sets,
            instance.num_elements,
            instance.frequency,
            _arrays_digest(instance),
        )
        assert observed == self.EXPECTED[case]

    @pytest.mark.parametrize(
        "weights,message",
        [
            ([1.0, 0.0, 1.0, 1.0, 1.0], "set weights must be positive and finite"),
            ([1.0, 1.0, -2.0, 1.0, 1.0], "set weights must be positive and finite"),
            ([1.0, np.nan, 1.0, 1.0, 1.0], "set weights must be positive and finite"),
            ([1.0, 1.0], "weights must have one entry per set"),
        ],
        ids=["zero", "negative", "nan", "short"],
    )
    def test_errors(self, weights, message):
        with pytest.raises(ValueError) as excinfo:
            SetCoverInstance.from_vertex_cover(star_graph(4), weights)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == message


class TestFromCsrValidation:
    """``from_csr(validate=True)`` checks every class invariant of the CSR it adopts."""

    @pytest.mark.parametrize(
        "indptr,indices,num_elements,error",
        [
            # A pointer array not starting at 0 would drop indices[0] from every set.
            ([1, 2], [0, 1], 2, ValueError),
            ([0, 2], [1, 0], 2, ValueError),  # unsorted set
            ([0, 2], [0, 0], 1, ValueError),  # duplicate element
            ([0, 1], [5], 2, ValueError),  # element out of range
            ([0, 1], [0], 2, InfeasibleInstanceError),  # element 1 uncovered
            ([0, 2, 1, 3], [0, 1, 2], 3, ValueError),  # decreasing indptr
        ],
        ids=["indptr-offset", "unsorted", "duplicate", "out-of-range", "uncovered", "decreasing"],
    )
    def test_rejects(self, indptr, indices, num_elements, error):
        with pytest.raises(error):
            SetCoverInstance.from_csr(
                np.array(indptr), np.array(indices), num_elements=num_elements, validate=True
            )

    def test_accepts_sets_that_restart_below_the_previous_last_element(self):
        # {3, 4} then {0, 1} then {2}: the flat indices fall at set
        # boundaries, which the sortedness check must not flag.
        instance = SetCoverInstance.from_csr(
            np.array([0, 2, 4, 5]), np.array([3, 4, 0, 1, 2]), num_elements=5, validate=True
        )
        assert [instance.set_elements(i).tolist() for i in range(3)] == [[3, 4], [0, 1], [2]]
        assert instance.is_cover(range(instance.num_sets))
        assert [instance.sets_containing(j).tolist() for j in range(5)] == [
            [1], [1], [2], [0], [0]
        ]
