"""Property-based tests (hypothesis) for the data-structure substrates."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, is_matching, is_vertex_cover
from repro.mapreduce import balanced_partition, tree_rounds, words_of
from repro.setcover import SetCoverInstance


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def graphs(draw, max_vertices: int = 12, weighted: bool = False):
    """Random simple graphs with up to ``max_vertices`` vertices."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    if weighted and edges:
        weights = draw(
            st.lists(
                st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
                min_size=len(edges),
                max_size=len(edges),
            )
        )
    else:
        weights = None
    return Graph(n, np.asarray(edges).reshape(-1, 2) if edges else [], weights)


@st.composite
def set_cover_instances(draw, max_sets: int = 8, max_elements: int = 10):
    m = draw(st.integers(min_value=1, max_value=max_elements))
    n = draw(st.integers(min_value=1, max_value=max_sets))
    sets = [
        draw(st.lists(st.integers(min_value=0, max_value=m - 1), unique=True, max_size=m))
        for _ in range(n)
    ]
    # Guarantee feasibility: the last set covers everything.
    sets[-1] = list(range(m))
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return SetCoverInstance(sets, weights, num_elements=m)


# --------------------------------------------------------------------------- #
# words_of
# --------------------------------------------------------------------------- #
class TestWordAccountingProperties:
    @given(st.lists(st.integers(-1000, 1000), max_size=50))
    def test_list_cost_equals_length(self, values):
        assert words_of(values) == len(values)

    @given(st.lists(st.integers(), max_size=20), st.lists(st.lists(st.floats(), max_size=5), max_size=5))
    def test_cost_is_additive_over_concatenation(self, flat, nested):
        assert words_of(flat + nested) == words_of(flat) + words_of(nested)

    @given(st.dictionaries(st.integers(), st.lists(st.integers(), max_size=5), max_size=10))
    def test_dict_costs_keys_plus_values(self, mapping):
        assert words_of(mapping) == len(mapping) + sum(len(v) for v in mapping.values())


class TestPartitionProperties:
    @given(st.integers(0, 500), st.integers(1, 20))
    def test_balanced_partition_is_balanced_and_complete(self, items, machines):
        assign = balanced_partition(items, machines)
        counts = np.bincount(assign, minlength=machines)
        assert counts.sum() == items
        assert counts.max() - counts.min() <= 1

    @given(st.integers(1, 10_000), st.integers(2, 50))
    def test_tree_rounds_reaches_all_machines(self, machines, fanout):
        depth = tree_rounds(machines, fanout)
        assert fanout**depth >= machines
        assert depth >= 1
        if machines > 1:
            assert fanout ** (depth - 1) < machines


# --------------------------------------------------------------------------- #
# Graph invariants
# --------------------------------------------------------------------------- #
class TestGraphProperties:
    @given(graphs())
    @settings(max_examples=50)
    def test_handshake_lemma(self, g):
        assert int(g.degrees().sum()) == 2 * g.num_edges

    @given(graphs())
    @settings(max_examples=50)
    def test_neighbors_symmetric(self, g):
        for v in range(g.num_vertices):
            for w in g.neighbors(v):
                assert v in g.neighbors(int(w))

    @given(graphs())
    @settings(max_examples=50)
    def test_full_vertex_set_is_always_a_cover(self, g):
        assert is_vertex_cover(g, range(g.num_vertices))

    @given(graphs())
    @settings(max_examples=50)
    def test_single_edge_is_always_a_matching(self, g):
        if g.num_edges:
            assert is_matching(g, [0])

    @given(graphs(weighted=True))
    @settings(max_examples=50)
    def test_total_weight_equals_weight_sum(self, g):
        assert g.total_weight() == float(g.weights.sum())


# --------------------------------------------------------------------------- #
# Set cover invariants
# --------------------------------------------------------------------------- #
class TestSetCoverProperties:
    @given(set_cover_instances())
    @settings(max_examples=50)
    def test_all_sets_always_cover(self, inst):
        assert inst.is_cover(range(inst.num_sets))

    @given(set_cover_instances())
    @settings(max_examples=50)
    def test_frequency_counts_dual_lists(self, inst):
        freq = max(inst.sets_containing(j).size for j in range(inst.num_elements))
        assert inst.frequency == freq

    @given(set_cover_instances())
    @settings(max_examples=50)
    def test_cover_weight_monotone(self, inst):
        half = list(range(inst.num_sets // 2))
        assert inst.cover_weight(half) <= inst.cover_weight(range(inst.num_sets)) + 1e-9

    @given(set_cover_instances())
    @settings(max_examples=50)
    def test_total_size_is_sum_of_set_sizes(self, inst):
        assert inst.total_size == int(inst.set_sizes.sum())
