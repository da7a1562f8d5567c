"""Unit tests for Luby's MIS, matching baselines and the filtering technique."""

from __future__ import annotations

import hashlib
import random

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
from repro.baselines.blossom import max_weight_matching
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


def _port_pairs(graph: Graph) -> list[tuple[int, int]]:
    """The blossom port's pairs, in the order its set iterates them."""
    edges = list(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
    return list(max_weight_matching(graph.num_vertices, edges, graph.weights.tolist()))


def _networkx_pairs(graph: Graph) -> list[tuple[int, int]]:
    """Blossom on an ordinary ``nx.Graph`` built vertex by vertex, then edge by edge."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for u, v, w in graph.edges():
        g.add_edge(u, v, weight=w)
    return list(nx.max_weight_matching(g, maxcardinality=False))


def _edge_ids_and_weight(graph: Graph, pairs: list[tuple[int, int]]) -> tuple[list[int], float]:
    """Sorted edge ids of ``pairs`` and their weight summed in pair order."""
    edge_of = {frozenset(graph.edge_endpoints(e)): e for e in range(graph.num_edges)}
    chosen = [edge_of[frozenset(pair)] for pair in pairs]
    weight = float(graph.weights[np.asarray(chosen, dtype=np.int64)].sum()) if chosen else 0.0
    return sorted(chosen), weight


def _tied_weights(seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    g = gnm_graph(40, 200, rng)
    return g.reweighted(rng.integers(1, 4, size=g.num_edges).astype(np.float64))


def _stdlib_graph(n: int, m: int, seed: int, weights: str) -> Graph:
    """``m`` distinct edges and their weights drawn with ``random.Random(seed)``.

    ``weights`` is ``uniform`` (in [1, 100)), ``tied`` (from {1, 2, 3}),
    ``unit`` or ``eighths`` (k/8 for k in 1..8).
    """
    draw = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    while len(edges) < m:
        a, b = draw.randrange(n), draw.randrange(n)
        key = (min(a, b), max(a, b))
        if a != b and key not in seen:
            seen.add(key)
            edges.append((a, b))
    draw_weight = {
        "uniform": lambda: 1.0 + 99.0 * draw.random(),
        "tied": lambda: float(draw.randint(1, 3)),
        "unit": lambda: 1.0,
        "eighths": lambda: draw.randint(1, 8) / 8,
    }[weights]
    return Graph(n, edges, [draw_weight() for _ in edges])


def _gnm_family_graph(seed: int, weights: str) -> Graph:
    """One of the oracle's small ``G(n, m)`` graphs: ``n <= 60``, up to ``6n`` edges."""
    draw = random.Random(1000 + seed)
    n = draw.randrange(2, 61)
    m = draw.randrange(n // 2, min(n * (n - 1) // 2, 6 * n) + 1)
    return _stdlib_graph(n, m, seed, weights)


def _classic(*edges: tuple[int, int, int]) -> Graph:
    """A NetworkX blossom test graph, 1-based vertices shifted to 0-based, float weights."""
    n = max(max(u, v) for u, v, _ in edges)
    return Graph(n, [(u - 1, v - 1) for u, v, _ in edges], [float(w) for _, _, w in edges])


# The graphs of NetworkX's own max_weight_matching tests, each built to
# drive one blossom path: S-blossoms, S-blossoms relabelled T, nested
# blossoms expanded recursively, and the "nasty" relabel/expand cases.
_CLASSIC_CASES = {
    "s-blossom": lambda: _classic((1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7)),
    "s-blossom-augment": lambda: _classic(
        (1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7), (1, 6, 5), (4, 5, 6)
    ),
    "s-t-blossom": lambda: _classic(
        (1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 4), (1, 6, 3)
    ),
    "nested-s-blossom": lambda: _classic(
        (1, 2, 9), (1, 3, 9), (2, 3, 10), (2, 4, 8), (3, 5, 8), (4, 5, 10), (5, 6, 6)
    ),
    "nested-s-blossom-relabel": lambda: _classic(
        (1, 2, 10), (1, 7, 10), (2, 3, 12), (3, 4, 20), (3, 5, 20),
        (4, 5, 25), (5, 6, 10), (6, 7, 10), (7, 8, 8),
    ),
    "nested-s-blossom-expand": lambda: _classic(
        (1, 2, 8), (1, 3, 8), (2, 3, 10), (2, 4, 12), (3, 5, 12),
        (4, 5, 14), (4, 6, 12), (5, 7, 12), (6, 7, 14), (7, 8, 12),
    ),
    "s-blossom-relabel-expand": lambda: _classic(
        (1, 2, 23), (1, 5, 22), (1, 6, 15), (2, 3, 25),
        (3, 4, 22), (4, 5, 25), (4, 8, 14), (5, 7, 13),
    ),
    "nested-s-blossom-relabel-expand": lambda: _classic(
        (1, 2, 19), (1, 3, 20), (1, 8, 8), (2, 3, 25), (2, 4, 18),
        (3, 5, 18), (4, 5, 13), (4, 7, 7), (5, 6, 7),
    ),
    "nasty-blossom-1": lambda: _classic(
        (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50),
        (1, 6, 30), (3, 9, 35), (4, 8, 35), (5, 7, 26), (9, 10, 5),
    ),
    "nasty-blossom-2": lambda: _classic(
        (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50),
        (1, 6, 30), (3, 9, 35), (4, 8, 26), (5, 7, 40), (9, 10, 5),
    ),
    "nasty-blossom-least-slack": lambda: _classic(
        (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50),
        (1, 6, 30), (3, 9, 35), (4, 8, 28), (5, 7, 26), (9, 10, 5),
    ),
    "nasty-blossom-augmenting": lambda: _classic(
        (1, 2, 45), (1, 7, 45), (2, 3, 50), (3, 4, 45), (4, 5, 95), (4, 6, 94), (5, 6, 94),
        (6, 7, 50), (1, 8, 30), (3, 11, 35), (5, 9, 36), (7, 10, 26), (11, 12, 5),
    ),
    "nasty-blossom-expand-recursively": lambda: _classic(
        (1, 2, 40), (1, 3, 40), (2, 3, 60), (2, 4, 55), (3, 5, 55), (4, 5, 50),
        (1, 8, 15), (5, 7, 30), (7, 6, 10), (8, 10, 10), (4, 9, 30),
    ),
}

# Odd cycles with tied weights, shrunk from a random search.  Three top-level
# S-blossoms tie for delta3, and the newest reuses a freed blossom id, so a
# scan by id instead of by creation picks another optimum (also of weight 60).
_BLOSSOM_ORDER_EDGES = [
    (2, 4, 6), (15, 16, 4), (0, 8, 6), (2, 3, 6), (20, 21, 2), (1, 13, 3), (2, 19, 5),
    (14, 15, 4), (12, 13, 4), (21, 22, 5), (16, 17, 4), (0, 24, 4), (16, 23, 5), (7, 8, 6),
    (1, 23, 6), (6, 7, 6), (5, 6, 6), (17, 18, 4), (5, 11, 6), (20, 22, 6), (10, 11, 6),
    (13, 14, 4), (3, 4, 6), (17, 21, 1), (8, 9, 6), (12, 18, 4), (9, 10, 6), (9, 17, 3),
    (2, 18, 4),
]

_MATCHING_CASES = {
    "blossom-creation-order": lambda: Graph(
        25, [(u, v) for u, v, _ in _BLOSSOM_ORDER_EDGES], [float(w) for *_, w in _BLOSSOM_ORDER_EDGES]
    ),
    "random-weights": lambda: gnm_graph(40, 200, np.random.default_rng(1), weights="uniform"),
    "tied-weights": lambda: _tied_weights(2),
    "unit-weights": lambda: gnm_graph(40, 200, np.random.default_rng(3)),
    "isolated-vertices": lambda: Graph(12, [(0, 1), (3, 4), (4, 9), (9, 11)], [2.0, 1.0, 3.0, 3.0]),
    "no-edges": lambda: Graph(5, []),
    "no-vertices": lambda: Graph(0, []),
    "figure-1-size": lambda: densified_graph(
        130, 0.45, np.random.default_rng(4), weights="uniform"
    ),
    **{f"classic-{name}": build for name, build in _CLASSIC_CASES.items()},
    **{
        f"gnm-{seed:02d}-{weights}": (lambda seed=seed, weights=weights: _gnm_family_graph(seed, weights))
        for seed in range(25)
        for weights in ("uniform", "tied", "unit", "eighths")
    },
    **{
        f"figure-1-n{n}-seed{seed}": (
            lambda n=n, c=c, seed=seed: densified_graph(
                n, c, np.random.default_rng(seed), weights="uniform", weight_range=(1.0, 100.0)
            )
        )
        for n, c in ((130, 0.45), (150, 0.4))
        for seed in (11, 12)
    },
}


class TestExactMatchingDecisions:
    """``exact_matching`` makes NetworkX's own decisions: same pairs, same edges, same weight bits."""

    @pytest.mark.parametrize("case", sorted(_MATCHING_CASES))
    def test_same_edges_and_weight_as_plain_networkx(self, case):
        graph = _MATCHING_CASES[case]()
        pairs = _networkx_pairs(graph)
        assert _port_pairs(graph) == pairs
        result = exact_matching(graph)
        edge_ids, weight = _edge_ids_and_weight(graph, pairs)
        assert result.edge_ids == edge_ids
        assert result.weight.hex() == weight.hex()


def _pairs_digest(graph: Graph) -> str:
    return hashlib.sha256(repr(_port_pairs(graph)).encode()).hexdigest()


_DIGEST_INPUTS = {
    "gnm-40-200-uniform": lambda: _stdlib_graph(40, 200, 1, "uniform"),
    "gnm-60-400-tied": lambda: _stdlib_graph(60, 400, 2, "tied"),
    "gnm-60-300-unit": lambda: _stdlib_graph(60, 300, 3, "unit"),
    "gnm-50-250-eighths": lambda: _stdlib_graph(50, 250, 4, "eighths"),
    "gnm-130-1160-uniform": lambda: _stdlib_graph(130, 1160, 5, "uniform"),
    "gnm-150-1110-uniform": lambda: _stdlib_graph(150, 1110, 6, "uniform"),
    "gnm-200-1200-tied": lambda: _stdlib_graph(200, 1200, 7, "tied"),
}

# sha256 of ``repr(pairs)``, the pair list in iteration order, as
# networkx.max_weight_matching returned it before the port; any changed
# blossom decision, pair orientation or set order changes a digest.
_DIGESTS = {
    "gnm-130-1160-uniform": "e0938bb7f2a02866e727a23eb7a8a911e38718ced4a24833ede0b5dd3ea8d399",
    "gnm-150-1110-uniform": "f28b2d23411eb440566a0fb73bd46ff5e492dbec1f20e22393b9ef16924782bd",
    "gnm-200-1200-tied": "3542dabe0a2145c3ead7e63ff2ba656a968683ce92c42f3ad9190369c74de513",
    "gnm-40-200-uniform": "fe403a371f1d75a6dab8ace51d7daa4af472e7d00d37246c6348b79494757881",
    "gnm-50-250-eighths": "e3341cfc00e21341a5e79769beff44aa3161c5c7bd584ac4e7dd9fb36f31efca",
    "gnm-60-300-unit": "a2bff0944c464eda87f30240298ba1a3a0603b0518e913974edd0fcb742a69d9",
    "gnm-60-400-tied": "2177379349e6621bbfec7685da4cd4a2b868507d34aba8690704f59102e2edf9",
}


class TestExactMatchingDigests:
    """The blossom port's pairs are pinned bit for bit, with no NetworkX to compare to.

    The inputs come from ``random.Random``, never from NumPy's RNG, so a
    NumPy upgrade cannot move them, and a NetworkX upgrade cannot move the
    digests.
    """

    @pytest.mark.parametrize("name", sorted(_DIGEST_INPUTS))
    def test_pairs_digest(self, name):
        graph = _DIGEST_INPUTS[name]()
        result = exact_matching(graph)
        assert is_matching(graph, result.edge_ids)
        assert _pairs_digest(graph) == _DIGESTS[name]


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
