"""Unit tests for the Misra–Gries (∆+1) edge colouring baseline."""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import misra_gries_edge_colouring
from repro.core.colouring import mapreduce_edge_colouring
from repro.datasets import load_edgelist
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnm_graph,
    grid_graph,
    is_proper_edge_colouring,
    path_graph,
    power_law_graph,
    star_graph,
)


def _num_colours(colours: dict[int, int]) -> int:
    return len(set(colours.values()))


class TestStructuredGraphs:
    def test_path(self):
        g = path_graph(10)
        colours = misra_gries_edge_colouring(g)
        assert is_proper_edge_colouring(g, colours)
        assert _num_colours(colours) <= 3

    def test_even_cycle_two_colours_allowed(self):
        g = cycle_graph(8)
        colours = misra_gries_edge_colouring(g)
        assert is_proper_edge_colouring(g, colours)
        assert _num_colours(colours) <= 3  # ∆ + 1 = 3

    def test_odd_cycle_needs_three(self):
        g = cycle_graph(7)
        colours = misra_gries_edge_colouring(g)
        assert is_proper_edge_colouring(g, colours)
        assert _num_colours(colours) == 3

    def test_star_uses_exactly_delta(self):
        g = star_graph(9)
        colours = misra_gries_edge_colouring(g)
        assert is_proper_edge_colouring(g, colours)
        assert _num_colours(colours) == 9

    def test_complete_graphs(self):
        for n in (4, 5, 6, 7):
            g = complete_graph(n)
            colours = misra_gries_edge_colouring(g)
            assert is_proper_edge_colouring(g, colours)
            assert _num_colours(colours) <= g.max_degree() + 1

    def test_grid(self):
        g = grid_graph(5, 6)
        colours = misra_gries_edge_colouring(g)
        assert is_proper_edge_colouring(g, colours)
        assert _num_colours(colours) <= 5

    def test_empty_graph(self):
        assert misra_gries_edge_colouring(Graph(4, [])) == {}

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        colours = misra_gries_edge_colouring(g)
        assert colours == {0: 0}


class TestRandomGraphs:
    @pytest.mark.parametrize("seed", range(8))
    def test_proper_and_delta_plus_one(self, seed):
        rng = np.random.default_rng(seed)
        g = gnm_graph(35, 140, rng)
        colours = misra_gries_edge_colouring(g)
        assert len(colours) == g.num_edges
        assert is_proper_edge_colouring(g, colours)
        assert _num_colours(colours) <= g.max_degree() + 1

    def test_power_law_graph(self, rng):
        g = power_law_graph(60, 180, rng)
        colours = misra_gries_edge_colouring(g)
        assert is_proper_edge_colouring(g, colours)
        assert _num_colours(colours) <= g.max_degree() + 1

    def test_dense_random_graph(self, rng):
        g = gnm_graph(18, 120, rng)
        colours = misra_gries_edge_colouring(g)
        assert is_proper_edge_colouring(g, colours)
        assert _num_colours(colours) <= g.max_degree() + 1


def _stdlib_gnm(n: int, m: int, seed: int, *, hubs: int = 0) -> Graph:
    """``m`` distinct edges drawn with ``random.Random(seed)``, kept in draw order.

    With ``hubs`` > 0 every other edge has an endpoint among the first
    ``hubs`` vertices, which skews the degrees.
    """
    draw = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    while len(edges) < m:
        a = draw.randrange(hubs) if hubs and len(edges) % 2 else draw.randrange(n)
        b = draw.randrange(n)
        key = (min(a, b), max(a, b))
        if a != b and key not in seen:
            seen.add(key)
            edges.append((a, b))
    return Graph(n, edges)


class _StdlibGenerator:
    """The one ``Generator`` call ``mapreduce_edge_colouring`` makes, served by ``random.Random``."""

    def __init__(self, seed: int):
        self._draw = random.Random(seed)

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        return np.array([self._draw.randrange(low, high) for _ in range(size)], dtype=np.int64)


def _digest(colours: dict) -> str:
    return hashlib.sha256(repr(list(colours.items())).encode()).hexdigest()


_DIGEST_INPUTS = {
    "gnm-60-600": lambda: _stdlib_gnm(60, 600, 1),
    "gnm-140-1200": lambda: _stdlib_gnm(140, 1200, 2),
    "gnm-200-1600": lambda: _stdlib_gnm(200, 1600, 3),
    "hubs-150-900": lambda: _stdlib_gnm(150, 900, 4, hubs=6),
    "complete-17": lambda: complete_graph(17),
    "grid-9x11": lambda: grid_graph(9, 11),
    "social-small": lambda: load_edgelist(Path(__file__).parents[1] / "data" / "social-small.txt")[0],
}

# sha256 of ``repr(list(colours.items()))`` as the colouring first computed
# them; any changed fan, ``cd``-path or rotation decision changes a digest.
_DIGESTS = {
    "complete-17": "3a735bf2300157809a199977571b92dc95bdb81f33b94b43cc08baca1d2c0f6e",
    "gnm-140-1200": "679adb86bfff8bc7172653fde17aa70ad4f3ddfd48865ca882407c1161b0ccac",
    "gnm-200-1600": "ba1832dcc7aa21cfbe2f4bc8cc0f41a2d3342f44fc15d59e88c2c1363793f000",
    "gnm-60-600": "59f0ffe02674ff2a7cb1bf5be59e3ee677ddfe9a8c347c5b385df2455704bdcc",
    "grid-9x11": "afe7fae452ac80bc4d9eb010e2b6988fc8e1181421e07f16e65701745448f7f7",
    "hubs-150-900": "667b08de5551396b911a4aa8931a568ee989602f4ade7caca75ef29e1d1628e4",
    "social-small": "f19fe8f08bc2ed9b485afe95b33dfc0cc55c8bb6ee0b0abcdb2f382fc43f04b7",
}
_GROUP_DIGEST = "de5349631f6b3c192642c9f6b1a8c52bafbb2955b0e2a4afd43a3a0c0362a574"


class TestDecisionDigests:
    """The colouring is pinned bit for bit, not just checked for properness.

    The inputs come from ``random.Random`` and fixed shapes, never from
    NumPy's RNG, so a NumPy upgrade cannot move them.
    """

    @pytest.mark.parametrize("name", sorted(_DIGEST_INPUTS))
    def test_colouring_digest(self, name):
        graph = _DIGEST_INPUTS[name]()
        colours = misra_gries_edge_colouring(graph)
        assert is_proper_edge_colouring(graph, colours)
        assert max(colours.values()) <= graph.max_degree()
        assert _digest(colours) == _DIGESTS[name]

    def test_group_subgraph_digest(self):
        # Each random edge group's subgraph is coloured by Misra–Gries.
        graph = _stdlib_gnm(300, 3000, 5)
        result = mapreduce_edge_colouring(graph, 0.0, _StdlibGenerator(6))
        assert result.num_groups == 3
        assert is_proper_edge_colouring(graph, result.colours)
        assert _digest(result.colours) == _GROUP_DIGEST
