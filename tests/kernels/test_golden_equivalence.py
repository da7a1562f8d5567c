"""Golden tests for the local ratio kernels.

The window-batched set cover kernel and Algorithm 4's central pass (a
walk over Python lists) must return *byte-identical* results to the
retained reference loops in :mod:`repro.kernels.reference` — same
emission lists in the same order, and bitwise-equal mutated float arrays —
on randomized instances across seeds, plus inputs where the batching
degenerates (duplicate orders, tiny weights).  The kernels that are plain loops (matching and
b-matching reductions, the two stack unwinds) are pinned instead by sha256
digests of their outputs on the same randomized and adversarial inputs
(stars, paths, complete graphs, duplicate orders), recorded when each was
still checked against a batched twin.  Vertex cover, which runs the set
cover kernel on its ``f = 2`` encoding, keeps the digests recorded for the
vertex cover kernel it replaced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs.generators import gnm_graph, with_random_weights
from repro.graphs.graph import Graph
from repro.kernels import (
    b_matching_reduction,
    capacity_array,
    central_matching_pass,
    matching_reduction,
    set_cover_reduction,
    unwind_b_matching,
    unwind_matching,
)
from repro.kernels.reference import (
    central_matching_pass_reference,
    set_cover_reduction_reference,
)
from repro.setcover import SetCoverInstance
from repro.setcover.generators import (
    random_coverage_instance,
    random_frequency_bounded_instance,
)

SEEDS = range(6)


def random_graph(seed: int, n: int = 80, m: int = 320) -> Graph:
    rng = np.random.default_rng(seed)
    return with_random_weights(gnm_graph(n, m, rng), rng)


def adversarial_graphs() -> list[Graph]:
    star = Graph(41, [(0, i) for i in range(1, 41)])
    path = Graph(40, [(i, i + 1) for i in range(39)])
    complete = Graph(18, [(i, j) for i in range(18) for j in range(i + 1, 18)])
    return [star, path, complete]


def all_graphs() -> list[Graph]:
    return [random_graph(seed) for seed in SEEDS] + adversarial_graphs()


def orders_for(m: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(1000 + seed)
    orders = [np.arange(m), rng.permutation(m)]
    if m:
        orders.append(rng.integers(0, m, m // 2))  # duplicates + subset
    return orders


def outputs_digest(outputs: list[tuple]) -> str:
    """sha256 of ``repr`` of plain ints, int lists and float lists (``repr`` is exact)."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


# --------------------------------------------------------------------------- #
# Matching
# --------------------------------------------------------------------------- #
def matching_outputs(graph_index: int) -> list[tuple]:
    """Per order: pushes, stack, final ``φ`` and the unwound matching."""
    graph = all_graphs()[graph_index]
    n, m = graph.num_vertices, graph.num_edges
    outputs = []
    for order in orders_for(m, graph_index):
        phi = np.zeros(n)
        stack: list[int] = []
        pushed = matching_reduction(graph.edge_u, graph.edge_v, graph.weights, phi, order, stack)
        matching = unwind_matching(graph.edge_u, graph.edge_v, n, stack)
        outputs.append((int(pushed), [int(e) for e in stack], phi.tolist(), [int(e) for e in matching]))
    return outputs


#: Recorded while ``matching_reduction`` and ``unwind_matching`` were batched
#: kernels golden-tested against these very loops.
MATCHING_DIGESTS = {
    0: "ebcc3271640603fcfe3ef248410a59a864ee9699f24c83a04fd1f8361a8ef466",
    1: "04ccf6216e56aee06e2e7bc8958ad68682f0f8aab50dcccd46da9875f0c237be",
    2: "144f6f881335f69e014df56651b23bf34ffe91a0d166268db9e9bc15a337fa58",
    3: "5548eb851da425967f94b94f9905c40ffb02fb39288334dd65c2d2fb9cb27a89",
    4: "eae1911a6f4e999cccd16ebcccbe7c90c0940b01a84a6e2c98299e3f62a91de2",
    5: "7e0fe9fe100fc79ed0e6099d80587fbcff0d486025a5bdafd018ceff4f47e4e2",
    6: "3994e3ba3f3f6718405007dc65fca5eb783ebcfd658983c4090e485fc1bb4213",
    7: "09690f9a3d82a117f18ad8fa6d8bbe03d009979576e234a080e0e1e2de69b832",
    8: "64169de8753795906e0f97ec87b55e4cba6eefdb81992c75a418b1cf1181678b",
}


@pytest.mark.parametrize("graph_index", range(9))
def test_matching_reduction_and_unwind_digest(graph_index):
    assert outputs_digest(matching_outputs(graph_index)) == MATCHING_DIGESTS[graph_index]


# --------------------------------------------------------------------------- #
# Vertex cover
# --------------------------------------------------------------------------- #
def vertex_cover_outputs(graph_index: int) -> list[tuple]:
    """Per order: additions, chosen vertices, final residuals and cover mask.

    The set cover kernel runs on the ``f = 2`` encoding: sets are vertices,
    elements are edges, so an edge order is an element order.
    """
    graph = all_graphs()[graph_index]
    n, m = graph.num_vertices, graph.num_edges
    rng = np.random.default_rng(2000 + graph_index)
    weights = rng.uniform(0.5, 5.0, n)
    instance = SetCoverInstance.from_vertex_cover(graph, weights)
    elem_indptr, elem_indices = instance.element_incidence()
    set_indptr, set_indices = instance.set_incidence()
    outputs = []
    for order in orders_for(m, graph_index):
        residual = weights.copy()
        in_cover = np.zeros(n, dtype=bool)
        covered = np.zeros(m, dtype=bool)
        chosen: list[int] = []
        added = set_cover_reduction(
            elem_indptr, elem_indices, set_indptr, set_indices,
            residual, covered, in_cover, order, chosen,
        )
        outputs.append(
            (int(added), [int(v) for v in chosen], residual.tolist(), in_cover.tolist())
        )
    return outputs


#: Recorded while the vertex cover reduction was a batched kernel of its own.
VERTEX_COVER_DIGESTS = {
    0: "b3205c7c0eae2f7420247b12bc7146cd29566cac210e5939fe05fa565462a236",
    1: "b6f953a85c3b9dcb4fb53a61cb9602336e69315bea76accf038882697bc62c67",
    2: "d696c8b1bf94a0a372b06e835d9bbed788b04e7978c4304a39ff235002e501a1",
    3: "8477a3f2178fb8e4fed0fd7b2e1e2369408b902a7198321c1cd0c7d30552b60f",
    4: "543bd36fa0c8bc722e620d0d92b6ce3af1ecabf1f2234c7df130f603dab64002",
    5: "38baa103c6acf93eb9485ca10b85530f6c8402455bf6b46b3ea71e9722bb2f63",
    6: "3b4b1f09b4d0f2256b98eb12209e28788eadbfcae9e2795d702f69c087a6dc96",
    7: "25d823cf7caee04c78fa8052831c2babf83d71f1eb187071449f7f0e4737bd49",
    8: "46fe631fd963baa36c47e912475789a87c30452d670646ad39dfbb92af0580e1",
}


@pytest.mark.parametrize("graph_index", range(9))
def test_vertex_cover_reduction_digest(graph_index):
    assert outputs_digest(vertex_cover_outputs(graph_index)) == VERTEX_COVER_DIGESTS[graph_index]


# --------------------------------------------------------------------------- #
# b-matching
# --------------------------------------------------------------------------- #
def b_matching_outputs(graph_index: int, epsilon: float) -> list[tuple]:
    """Per order: pushes, stack, final ``φ`` and the unwound b-matching."""
    graph = all_graphs()[graph_index]
    n, m = graph.num_vertices, graph.num_edges
    rng = np.random.default_rng(3000 + graph_index)
    capacities = rng.integers(1, 4, n).astype(np.int64)
    outputs = []
    for order in orders_for(m, graph_index):
        phi = np.zeros(n)
        stack: list[int] = []
        pushed = b_matching_reduction(
            graph.edge_u, graph.edge_v, graph.weights, capacities, epsilon, phi, order, stack
        )
        chosen = unwind_b_matching(graph.edge_u, graph.edge_v, stack, capacities)
        outputs.append((int(pushed), [int(e) for e in stack], phi.tolist(), [int(e) for e in chosen]))
    return outputs


#: Keyed by (graph index, ε); recorded while ``b_matching_reduction`` and
#: ``unwind_b_matching`` were batched kernels.
B_MATCHING_DIGESTS = {
    (0, 0.05): "f80d103a49b47e0f7a6e82599258cb1b013168c415400c635fa3a630bc752c16",
    (0, 0.4): "6e9943590241dae5f362def648abb93983f1546f6a3e3622a411072c0a11b7bf",
    (1, 0.05): "71c891195ef65ae82b475d2882655730ce808f485ccf57d8882f6a31295b7a6d",
    (1, 0.4): "c7ccc2d88047a197303593ba34d8bd8098441ee89fb46fe115e606bce68a1d49",
    (2, 0.05): "54a3a25bec0eb631513eac2501944b787cc8ed569db68437a42efb1e86b58e8d",
    (2, 0.4): "66b25bbc239c3214406f8a0ee704a20ef0d38beb9a0fc8357e990a62260f75de",
    (3, 0.05): "e6daf060316f3c55774c5a09b4b726f6e408ea53cdf67f7ae443922db663c4b5",
    (3, 0.4): "45ad94dc0b8336273f427f2e2a7a5a42d39b11090c04c5830c981413d66a2008",
    (4, 0.05): "7d274317082758dee177e8a450c4d6b1e72cfebc7bc2f0c963d262aeff693371",
    (4, 0.4): "de76c6ab701138006d0a03911a9fc48a42f739760e15dfae5c340c858c85179b",
    (5, 0.05): "4c96bc2283842f8bd0b824c5c3fdb26e8d11ac8d4cf655c25d2cb937e8ca8bdb",
    (5, 0.4): "5acf6c5015c5c11ec693c46d509ad51c55fe94a02fc20f5e9c3cec1a9a9f0553",
    (6, 0.05): "970ae8ce69367f0276ab53d04d4ac62400853c628f891187d10161f4143fab10",
    (6, 0.4): "970ae8ce69367f0276ab53d04d4ac62400853c628f891187d10161f4143fab10",
    (7, 0.05): "b896638e037f74d9b7e7d714ad0bac4069541e77d429f376200d8fba654f2ca1",
    (7, 0.4): "f2f8cd63983327b9bb63363878d88b42b381ee313c79ab4594f2288216d35968",
    (8, 0.05): "faf47ee317f2fea660b37ccd825610df3f2a5f097b2d3b9479e4360f972b30d2",
    (8, 0.4): "781bdc80bbf9d2a087833bf28d128249f8edbe75284b8fc2ab6933d5eec422a3",
}


@pytest.mark.parametrize("graph_index", range(9))
@pytest.mark.parametrize("epsilon", [0.05, 0.4])
def test_b_matching_reduction_and_unwind_digest(graph_index, epsilon):
    digest = outputs_digest(b_matching_outputs(graph_index, epsilon))
    assert digest == B_MATCHING_DIGESTS[graph_index, epsilon]


# --------------------------------------------------------------------------- #
# Set cover
# --------------------------------------------------------------------------- #
def set_cover_instances():
    instances = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        instances.append(random_coverage_instance(40, 60, rng, density=0.08))
        instances.append(random_frequency_bounded_instance(30, 50, 4, rng))
    return instances


@pytest.mark.parametrize("instance_index", range(12))
def test_set_cover_reduction_golden(instance_index):
    instance = set_cover_instances()[instance_index]
    elem_indptr, elem_indices = instance.element_incidence()
    set_indptr, set_indices = instance.set_incidence()
    m, n = instance.num_elements, instance.num_sets
    for order in orders_for(m, instance_index):
        state_ref = (
            instance.weights.astype(np.float64).copy(),
            np.zeros(m, dtype=bool),
            np.zeros(n, dtype=bool),
            [],
        )
        state_ker = (
            instance.weights.astype(np.float64).copy(),
            np.zeros(m, dtype=bool),
            np.zeros(n, dtype=bool),
            [],
        )
        count_ref = set_cover_reduction_reference(
            elem_indptr, elem_indices, set_indptr, set_indices,
            state_ref[0], state_ref[1], state_ref[2], order, state_ref[3],
        )
        count_ker = set_cover_reduction(
            elem_indptr, elem_indices, set_indptr, set_indices,
            state_ker[0], state_ker[1], state_ker[2], order, state_ker[3],
        )
        assert count_ker == count_ref
        assert state_ker[3] == state_ref[3]
        assert np.array_equal(state_ker[0], state_ref[0])
        assert np.array_equal(state_ker[1], state_ref[1])
        assert np.array_equal(state_ker[2], state_ref[2])


def test_set_cover_reduction_resumes_partial_state():
    """Algorithm 1 calls the kernel repeatedly against persistent state."""
    rng = np.random.default_rng(99)
    instance = random_coverage_instance(30, 40, rng, density=0.1)
    elem_indptr, elem_indices = instance.element_incidence()
    set_indptr, set_indices = instance.set_incidence()
    m, n = instance.num_elements, instance.num_sets
    batches = [rng.permutation(m)[:10] for _ in range(4)]

    residual_ref = instance.weights.astype(np.float64).copy()
    residual_ker = residual_ref.copy()
    covered_ref = np.zeros(m, dtype=bool)
    covered_ker = np.zeros(m, dtype=bool)
    cover_ref = np.zeros(n, dtype=bool)
    cover_ker = np.zeros(n, dtype=bool)
    chosen_ref: list[int] = []
    chosen_ker: list[int] = []
    for batch in batches:
        set_cover_reduction_reference(
            elem_indptr, elem_indices, set_indptr, set_indices,
            residual_ref, covered_ref, cover_ref, batch, chosen_ref,
        )
        set_cover_reduction(
            elem_indptr, elem_indices, set_indptr, set_indices,
            residual_ker, covered_ker, cover_ker, batch, chosen_ker,
        )
        assert chosen_ker == chosen_ref
        assert np.array_equal(residual_ker, residual_ref)


def test_set_cover_reduction_tiny_weights():
    """Weights near the 1e-12 freeze threshold follow the reference bitwise."""
    sets = [list(range(10))] + [[i] for i in range(10)]
    weights = np.concatenate([[1e-13], np.full(10, 0.5)])
    from repro.setcover.instance import SetCoverInstance

    instance = SetCoverInstance(sets, weights)
    elem_indptr, elem_indices = instance.element_incidence()
    set_indptr, set_indices = instance.set_incidence()
    order = np.arange(10)
    for reduction in (set_cover_reduction, set_cover_reduction_reference):
        residual = weights.astype(np.float64).copy()
        covered = np.zeros(10, dtype=bool)
        in_cover = np.zeros(11, dtype=bool)
        chosen: list[int] = []
        reduction(
            elem_indptr, elem_indices, set_indptr, set_indices,
            residual, covered, in_cover, order, chosen,
        )
        assert chosen == [0]  # giant set freezes instantly, covers everything


# --------------------------------------------------------------------------- #
# Central machine pass (Algorithm 4)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_central_matching_pass_golden(seed):
    graph = random_graph(seed, n=60, m=240)
    n, m = graph.num_vertices, graph.num_edges
    rng = np.random.default_rng(4000 + seed)
    # Build a host-sorted sample like Algorithm 4 does, including repeated
    # edges under different hosts and partially-pushed state.
    sample_u = rng.random(m) < 0.5
    sample_v = rng.random(m) < 0.5
    edges = np.concatenate([np.flatnonzero(sample_u), np.flatnonzero(sample_v)])
    hosts = np.concatenate(
        [graph.edge_u[np.flatnonzero(sample_u)], graph.edge_v[np.flatnonzero(sample_v)]]
    )
    order = np.argsort(hosts, kind="stable")
    sample_edges = edges[order]
    boundaries = np.searchsorted(hosts[order], np.arange(n + 1))

    phi_ref = np.zeros(n)
    phi_ker = np.zeros(n)
    pre_stack = rng.random(m) < 0.05  # some edges already pushed
    on_stack_ref = pre_stack.copy()
    on_stack_ker = pre_stack.copy()
    stack_ref: list[int] = []
    stack_ker: list[int] = []
    pushed_ref = central_matching_pass_reference(
        graph.edge_u, graph.edge_v, graph.weights, phi_ref, on_stack_ref,
        sample_edges, boundaries, stack_ref,
    )
    pushed_ker = central_matching_pass(
        graph.edge_u, graph.edge_v, graph.weights, phi_ker, on_stack_ker,
        sample_edges, boundaries, stack_ker,
    )
    assert pushed_ker == pushed_ref
    assert stack_ker == stack_ref
    assert np.array_equal(phi_ker, phi_ref)
    assert np.array_equal(on_stack_ker, on_stack_ref)


# --------------------------------------------------------------------------- #
# Capacity materialisation (satellite fix)
# --------------------------------------------------------------------------- #
def test_capacity_array_mapping_matches_dict_loop():
    mapping = {0: 3, 5: 2, 9: 7}
    expected = np.array([int(mapping.get(v, 1)) for v in range(12)], dtype=np.int64)
    assert np.array_equal(capacity_array(12, mapping), expected)
    assert np.array_equal(capacity_array(4, {}), np.ones(4, dtype=np.int64))
    assert np.array_equal(capacity_array(3, 2), np.full(3, 2, dtype=np.int64))
    assert np.array_equal(capacity_array(3, [1, 2, 3]), np.array([1, 2, 3]))


def test_capacity_array_ignores_out_of_range_keys_like_dict_get():
    # The replaced ``b.get(v, 1) for v in range(n)`` loop never looked at
    # stray keys; the vectorized path must not start raising on them.
    assert np.array_equal(capacity_array(3, {5: 9, -1: 4}), np.ones(3, dtype=np.int64))
    assert np.array_equal(
        capacity_array(3, {1: 2, 7: 9}), np.array([1, 2, 1], dtype=np.int64)
    )


def test_capacity_array_rejects_wrong_length_vector():
    with pytest.raises(ValueError):
        capacity_array(3, [1, 2])
