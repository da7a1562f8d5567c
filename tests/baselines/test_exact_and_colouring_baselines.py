"""Unit tests for exact/LP reference solvers and sequential colouring baselines."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.baselines import (
    exact_matching,
    exact_max_independent_set_small,
    exact_set_cover_small,
    exact_vertex_cover_small,
    fractional_matching_bound,
    greedy_colouring,
    largest_first_colouring,
    lp_set_cover_bound,
    lp_vertex_cover_bound,
)
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    densified_graph,
    gnm_graph,
    is_independent_set,
    is_proper_vertex_colouring,
    is_vertex_cover,
    star_graph,
)
from repro.setcover import (
    SetCoverInstance,
    disjoint_groups_instance,
    random_frequency_bounded_instance,
)


class TestExactSolvers:
    def test_exact_vertex_cover_star(self):
        g = star_graph(5)
        cover, cost = exact_vertex_cover_small(g, np.ones(6))
        assert cover == [0]
        assert cost == 1.0

    def test_exact_vertex_cover_weighted(self):
        g = star_graph(3)
        weights = np.array([100.0, 1.0, 1.0, 1.0])
        cover, cost = exact_vertex_cover_small(g, weights)
        assert sorted(cover) == [1, 2, 3]
        assert cost == 3.0

    def test_exact_vertex_cover_is_feasible(self, rng):
        g = gnm_graph(10, 25, rng)
        cover, _ = exact_vertex_cover_small(g, rng.uniform(1, 5, 10))
        assert is_vertex_cover(g, cover)

    def test_exact_vertex_cover_size_guard(self, rng):
        with pytest.raises(ValueError):
            exact_vertex_cover_small(gnm_graph(25, 40, rng), np.ones(25))

    def test_exact_set_cover_known(self, small_instance):
        chosen, cost = exact_set_cover_small(small_instance)
        assert cost == pytest.approx(3.0)
        assert small_instance.is_cover(chosen)

    def test_exact_set_cover_disjoint(self):
        inst = disjoint_groups_instance(4, 2)
        _, cost = exact_set_cover_small(inst)
        assert cost == 4.0

    def test_exact_set_cover_size_guard(self):
        inst = SetCoverInstance([[0]] * 20, num_elements=1)
        with pytest.raises(ValueError):
            exact_set_cover_small(inst)

    def test_exact_mis_cycle(self):
        mis = exact_max_independent_set_small(cycle_graph(7))
        assert len(mis) == 3
        assert is_independent_set(cycle_graph(7), mis)

    def test_exact_mis_complete(self):
        assert len(exact_max_independent_set_small(complete_graph(6))) == 1

    def test_exact_mis_size_guard(self, rng):
        with pytest.raises(ValueError):
            exact_max_independent_set_small(gnm_graph(25, 50, rng))


class TestLPBounds:
    def test_vertex_cover_lp_lower_bounds_integral(self, rng):
        g = gnm_graph(14, 35, rng)
        weights = rng.uniform(1.0, 5.0, size=14)
        _, optimum = exact_vertex_cover_small(g, weights)
        lp = lp_vertex_cover_bound(g, weights)
        assert lp <= optimum + 1e-6
        assert lp >= optimum / 2 - 1e-6  # integrality gap ≤ 2

    def test_vertex_cover_lp_empty_graph(self):
        assert lp_vertex_cover_bound(Graph(4, []), np.ones(4)) == 0.0

    def test_set_cover_lp_lower_bounds_integral(self, small_instance):
        _, optimum = exact_set_cover_small(small_instance)
        lp = lp_set_cover_bound(small_instance)
        assert lp <= optimum + 1e-6
        assert lp > 0

    def test_fractional_matching_upper_bounds_integral(self, rng):
        g = gnm_graph(16, 45, rng, weights="uniform")
        exact = exact_matching(g)
        lp = fractional_matching_bound(g)
        assert lp >= exact.weight - 1e-6
        assert lp <= 1.5 * exact.weight + 1e-6  # integrality gap ≤ 3/2

    def test_fractional_matching_empty(self):
        assert fractional_matching_bound(Graph(3, [])) == 0.0


def _dense_lp(cost: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> float:
    from scipy.optimize import linprog

    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * len(cost), method="highs")
    assert res.success
    return float(res.fun)


class TestSparseLPConstraints:
    """The bounds build sparse constraint matrices; a dense matrix must give the same optimum."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bounds_equal_the_dense_lp(self, seed):
        rng = np.random.default_rng(seed)
        g = densified_graph(int(rng.integers(20, 120)), 0.4, rng, weights="uniform")
        n, m = g.num_vertices, g.num_edges
        vertex_weights = rng.uniform(1.0, 10.0, size=n)
        ends = np.zeros((m, n))  # row e has a one at both endpoints of e
        ends[np.arange(m), g.edge_u] = 1.0
        ends[np.arange(m), g.edge_v] = 1.0
        assert lp_vertex_cover_bound(g, vertex_weights) == _dense_lp(
            vertex_weights, -ends, -np.ones(m)
        )
        assert fractional_matching_bound(g) == -_dense_lp(-g.weights, ends.T, np.ones(n))

        instance = random_frequency_bounded_instance(
            int(rng.integers(30, 150)), int(rng.integers(20, 100)), 4, rng
        )
        member = np.zeros((instance.num_elements, instance.num_sets))
        for j in range(instance.num_elements):
            member[j, instance.sets_containing(j)] = 1.0
        assert lp_set_cover_bound(instance) == _dense_lp(
            instance.weights, -member, -np.ones(instance.num_elements)
        )

    def test_vertex_cover_lp_memory_follows_the_nonzeros(self):
        import scipy.optimize  # noqa: F401  (imported before tracing starts)

        g = densified_graph(600, 0.45, np.random.default_rng(0))
        tracemalloc.start()
        try:
            lp_vertex_cover_bound(g, np.ones(g.num_vertices))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A dense m × n float matrix alone would take 8·m·n ≈ 51 MB here.
        assert peak < 16e6


class TestSequentialColouringBaselines:
    def test_greedy_colouring_proper_and_delta_plus_one(self, rng):
        g = gnm_graph(40, 160, rng)
        result = greedy_colouring(g)
        assert is_proper_vertex_colouring(g, result.colours)
        assert result.num_colours <= g.max_degree() + 1

    def test_largest_first_no_worse_than_greedy_bound(self, rng):
        g = gnm_graph(40, 160, rng)
        result = largest_first_colouring(g)
        assert is_proper_vertex_colouring(g, result.colours)
        assert result.num_colours <= g.max_degree() + 1

    def test_bipartite_uses_two_colours(self):
        g = cycle_graph(8)
        assert greedy_colouring(g).num_colours == 2

    def test_complete_graph_needs_n(self):
        assert greedy_colouring(complete_graph(5)).num_colours == 5

    def test_custom_order(self, rng):
        g = gnm_graph(20, 60, rng)
        result = greedy_colouring(g, order=rng.permutation(20))
        assert is_proper_vertex_colouring(g, result.colours)
