"""Unit tests for Luby's MIS, matching baselines and the filtering technique."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    exact_b_matching_small,
    exact_matching,
    filtering_unweighted_matching,
    filtering_vertex_cover,
    greedy_b_matching,
    greedy_matching,
    luby_mis,
)
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    densified_graph,
    gnm_graph,
    is_b_matching,
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
    is_vertex_cover,
    star_graph,
)


def _plain_networkx_matching(graph: Graph) -> tuple[list[int], float]:
    """Blossom on an ordinary ``nx.Graph`` built edge by edge, mapped back to edge ids."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for u, v, w in graph.edges():
        g.add_edge(u, v, weight=w)
    pairs = nx.max_weight_matching(g, maxcardinality=False)
    edge_of = {frozenset(graph.edge_endpoints(e)): e for e in range(graph.num_edges)}
    chosen = [edge_of[frozenset(pair)] for pair in pairs]
    weight = float(graph.weights[np.asarray(chosen, dtype=np.int64)].sum()) if chosen else 0.0
    return sorted(chosen), weight


def _tied_weights(seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    g = gnm_graph(40, 200, rng)
    return g.reweighted(rng.integers(1, 4, size=g.num_edges).astype(np.float64))


_MATCHING_CASES = {
    "random-weights": lambda: gnm_graph(40, 200, np.random.default_rng(1), weights="uniform"),
    "tied-weights": lambda: _tied_weights(2),
    "unit-weights": lambda: gnm_graph(40, 200, np.random.default_rng(3)),
    "isolated-vertices": lambda: Graph(12, [(0, 1), (3, 4), (4, 9), (9, 11)], [2.0, 1.0, 3.0, 3.0]),
    "no-edges": lambda: Graph(5, []),
    "figure-1-size": lambda: densified_graph(
        130, 0.45, np.random.default_rng(4), weights="uniform"
    ),
}


class TestExactMatchingDecisions:
    """``exact_matching`` makes NetworkX's own decisions: same edges, same weight bits."""

    @pytest.mark.parametrize("case", sorted(_MATCHING_CASES))
    def test_same_edges_and_weight_as_plain_networkx(self, case):
        graph = _MATCHING_CASES[case]()
        result = exact_matching(graph)
        edge_ids, weight = _plain_networkx_matching(graph)
        assert result.edge_ids == edge_ids
        assert result.weight.hex() == weight.hex()


class TestLubyMIS:
    def test_maximal_independent_set(self, rng):
        for seed in range(4):
            g = densified_graph(70, 0.4, np.random.default_rng(seed))
            result = luby_mis(g, np.random.default_rng(seed + 10))
            assert is_maximal_independent_set(g, result.vertices)

    def test_logarithmic_round_count(self, rng):
        g = densified_graph(200, 0.45, rng)
        result = luby_mis(g, rng)
        assert result.num_iterations <= 6 * int(np.ceil(np.log2(200)))

    def test_handles_isolated_vertices(self, rng):
        g = Graph(5, [(0, 1)])
        result = luby_mis(g, rng)
        assert {2, 3, 4} <= set(result.vertices)

    def test_complete_graph(self, rng):
        result = luby_mis(complete_graph(10), rng)
        assert len(result.vertices) == 1


class TestGreedyMatching:
    def test_maximal_and_half_optimal(self, rng):
        g = gnm_graph(24, 80, rng, weights="uniform")
        greedy = greedy_matching(g)
        exact = exact_matching(g)
        assert is_maximal_matching(g, greedy.edge_ids)
        assert greedy.weight >= exact.weight / 2 - 1e-9

    def test_picks_heaviest_edge_first(self):
        g = star_graph(4).reweighted([1.0, 2.0, 3.0, 10.0])
        result = greedy_matching(g)
        assert result.weight == 10.0

    def test_empty_graph(self):
        result = greedy_matching(Graph(3, []))
        assert result.edge_ids == [] and result.weight == 0.0

    def test_exact_matching_beats_greedy(self, rng):
        g = gnm_graph(18, 50, rng, weights="uniform")
        assert exact_matching(g).weight >= greedy_matching(g).weight - 1e-9

    def test_exact_matching_on_known_graph(self):
        # path of 4 vertices with weights (3, 4, 3): optimum takes the two outer edges.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [3.0, 4.0, 3.0])
        exact = exact_matching(g)
        assert exact.weight == 6.0
        assert sorted(exact.edge_ids) == [0, 2]


class TestGreedyBMatching:
    def test_feasibility(self, rng):
        g = gnm_graph(20, 80, rng, weights="uniform")
        result = greedy_b_matching(g, 2)
        assert is_b_matching(g, result.edge_ids, 2)

    def test_capacity_dict_and_vector(self, rng):
        g = star_graph(5).reweighted([5.0, 4.0, 3.0, 2.0, 1.0])
        by_dict = greedy_b_matching(g, {0: 2})
        by_vec = greedy_b_matching(g, np.array([2, 1, 1, 1, 1, 1]))
        assert by_dict.weight == by_vec.weight == 9.0

    def test_exact_bruteforce_small(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)], [5.0, 4.0, 3.0])
        exact = exact_b_matching_small(g, 1)
        assert exact.weight == 5.0
        exact2 = exact_b_matching_small(g, 2)
        assert exact2.weight == 12.0  # all three edges feasible when b=2

    def test_bruteforce_size_guard(self, rng):
        g = gnm_graph(10, 30, rng)
        with pytest.raises(ValueError):
            exact_b_matching_small(g, 2)


class TestFiltering:
    def test_produces_maximal_matching(self, rng):
        g = densified_graph(80, 0.4, rng)
        result = filtering_unweighted_matching(g, eta=100, rng=rng)
        assert is_maximal_matching(g, result.edge_ids)

    def test_round_count_small(self, rng):
        g = densified_graph(150, 0.45, rng)
        result = filtering_unweighted_matching(g, eta=int(150**1.25), rng=rng)
        assert result.num_iterations <= 10

    def test_vertex_cover_from_matching(self, rng):
        g = densified_graph(80, 0.4, rng)
        cover = filtering_vertex_cover(g, eta=100, rng=rng)
        assert is_vertex_cover(g, cover.chosen_sets)
        # endpoints of a maximal matching: at most 2·OPT for the unweighted problem
        assert cover.weight == len(cover.chosen_sets)

    def test_cardinality_two_approximation(self, rng):
        g = gnm_graph(22, 70, rng)
        exact = exact_matching(g)
        result = filtering_unweighted_matching(g, eta=40, rng=rng)
        assert len(result.edge_ids) >= len(exact.edge_ids) / 2

    def test_invalid_eta(self, rng, small_cycle):
        with pytest.raises(ValueError):
            filtering_unweighted_matching(small_cycle, eta=0, rng=rng)

    def test_cycle_graph(self, rng):
        result = filtering_unweighted_matching(cycle_graph(9), eta=4, rng=rng)
        assert is_maximal_matching(cycle_graph(9), result.edge_ids)
