"""Driver outputs pinned bit for bit on small adversarial inputs.

The central-machine paths these drivers run (the ``f = 2`` set cover
encoding, the clique candidate update, Algorithm 4's central walk,
Algorithm 7's push loop, Algorithm 5's per-group colouring, Algorithm 2's
phases, and the group loops of Algorithms 3 and 6) are checked elsewhere
for validity and same-seed determinism only, so a rewrite that moved a
tie-break or a draw would pass those tests.  Each driver configuration is
pinned by one sha256 digest of its result plus ``RunMetrics`` (floats by
``float.hex``, arrays by their bytes) over six graphs, or five set cover
instances, and µ ∈ {0.1, 0.3}.

The graphs are built to make tie-breaks and float order matter: a star
(every candidate shares one host), ``K14``, a ``2^k`` weight ladder (every
residual subtraction is visible in the result), ``{1, 2, 3}``-tied and unit
weights, and uniform weights with isolated vertices; the edge list is
shuffled, so edge ids do not follow vertex order.  The dense graphs are
large enough for both Algorithm 4 and Algorithm 7 to take sampled
iterations at µ = 0.1.

The set cover instances make Algorithm 3's ratio ties and draws matter:
unit weights, a shuffled ``2^k`` weight ladder, every set twice at
``{1, 2, 3}``-tied weights, one set covering the whole ground set at the
same ratio as the singletons beside it, and the same universe set priced
above the singletons (``universe-dear``), whose singleton-only buckets
draw enough groups for Line 15's ``break`` (a group larger than
``4·group_size``) to fire; ``test_line_15_break_fires`` checks that it
does.

The digests were recorded before these paths were rewritten on Python
lists.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable

import numpy as np
import pytest

import repro
from repro.core.hungry_greedy.set_cover import hungry_greedy_set_cover
from repro.graphs.generators import complete_graph, gnm_graph
from repro.graphs.graph import Graph
from repro.setcover.instance import SetCoverInstance

MUS = (0.1, 0.3)


def _plain(value: Any) -> Any:
    """A ``repr``-stable form: floats by ``hex``, arrays by dtype, shape and bytes."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [(_plain(k), _plain(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes().hex())
    if isinstance(value, np.generic):
        return _plain(value.item())
    return value.hex() if isinstance(value, float) else repr(value)


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(_plain(value)).encode()).hexdigest()


def _shuffled(n: int, edge_u, edge_v, weights, seed: int) -> Graph:
    """The same graph with its edge list in a random order (edge ids move)."""
    perm = np.random.default_rng(seed).permutation(len(edge_u))
    pairs = np.column_stack([np.asarray(edge_u)[perm], np.asarray(edge_v)[perm]])
    return Graph(n, pairs, np.asarray(weights, dtype=np.float64)[perm])


def _tied(size: int) -> np.ndarray:
    return (np.arange(size) % 3 + 1).astype(np.float64)


def _ladder(size: int) -> np.ndarray:
    return 2.0 ** np.arange(size)


def _graphs() -> list[tuple[Graph, np.ndarray]]:
    """(graph, vertex weights for vertex cover) for the six adversarial inputs."""
    star_u = np.zeros(32, dtype=np.int64)
    star_v = np.arange(1, 33)
    k14 = complete_graph(14)
    dense = gnm_graph(40, 400, np.random.default_rng(11))
    sparse = gnm_graph(40, 380, np.random.default_rng(12))
    uniform = np.random.default_rng(13)
    return [
        (_shuffled(33, star_u, star_v, _ladder(32), 1), _ladder(33)),
        (_shuffled(14, k14.edge_u, k14.edge_v, _tied(k14.num_edges), 2), _tied(14)),
        (_shuffled(40, dense.edge_u, dense.edge_v, _ladder(400), 3), _ladder(40)),
        (_shuffled(40, dense.edge_u, dense.edge_v, _tied(400), 4), _tied(40)),
        (_shuffled(40, dense.edge_u, dense.edge_v, np.ones(400), 5), np.ones(40)),
        # Six isolated vertices (40..45) next to a uniform-weight graph.
        (
            _shuffled(46, sparse.edge_u, sparse.edge_v, uniform.uniform(1.0, 100.0, 380), 6),
            uniform.uniform(1.0, 20.0, 46),
        ),
    ]


def _instances() -> dict[str, SetCoverInstance]:
    """The five set cover inputs, by name."""
    base = repro.random_coverage_instance(60, 40, np.random.default_rng(21), density=0.15)
    sets = [base.set_elements(i) for i in range(base.num_sets)]
    half = repro.random_coverage_instance(30, 40, np.random.default_rng(23), density=0.1)
    halves = [half.set_elements(i) for i in range(half.num_sets)]
    size = 200
    universe = [np.arange(size)] + [[j] for j in range(size)]
    return {
        "unit": SetCoverInstance(sets, np.ones(60), num_elements=40),
        "ladder": SetCoverInstance(
            sets, 2.0 ** np.random.default_rng(22).permutation(60), num_elements=40
        ),
        "duplicates": SetCoverInstance(halves + halves, np.tile(_tied(30), 2), num_elements=40),
        # Every set has ratio 1: the universe set ties with each singleton.
        "universe": SetCoverInstance(universe, np.r_[float(size), np.ones(size)]),
        "universe-dear": SetCoverInstance(universe, np.r_[2.0 * size, np.ones(size)]),
    }


Call = Callable[[Graph, np.ndarray, float, np.random.Generator], Any]

#: One driver configuration per digest.
CONFIGS: dict[str, Call] = {
    "vertex-cover": lambda g, vw, mu, rng: repro.mpc_weighted_vertex_cover(g, vw, mu, rng),
    "maximal-clique": lambda g, vw, mu, rng: repro.mpc_maximal_clique(g, mu, rng),
    "matching": lambda g, vw, mu, rng: repro.mpc_weighted_matching(g, mu, rng),
    "matching-eta-n": lambda g, vw, mu, rng: repro.mpc_weighted_matching(
        g, mu, rng, eta=g.num_vertices
    ),
    "b-matching-2-0.1": lambda g, vw, mu, rng: repro.mpc_weighted_b_matching(
        g, 2, mu, rng, epsilon=0.1
    ),
    "b-matching-2-0.5": lambda g, vw, mu, rng: repro.mpc_weighted_b_matching(
        g, 2, mu, rng, epsilon=0.5
    ),
    "b-matching-3-0.1": lambda g, vw, mu, rng: repro.mpc_weighted_b_matching(
        g, 3, mu, rng, epsilon=0.1
    ),
    "b-matching-3-0.5": lambda g, vw, mu, rng: repro.mpc_weighted_b_matching(
        g, 3, mu, rng, epsilon=0.5
    ),
    "vertex-colouring": lambda g, vw, mu, rng: repro.mpc_vertex_colouring(g, mu, rng),
    "vertex-colouring-3": lambda g, vw, mu, rng: repro.mpc_vertex_colouring(
        g, mu, rng, num_groups=3
    ),
    "mis": lambda g, vw, mu, rng: repro.mpc_maximal_independent_set(g, mu, rng),
    "edge-colouring": lambda g, vw, mu, rng: repro.mpc_edge_colouring(g, mu, rng),
    "mis-simple": lambda g, vw, mu, rng: repro.mpc_maximal_independent_set_simple(g, mu, rng),
    "edge-colouring-3": lambda g, vw, mu, rng: repro.mpc_edge_colouring(
        g, mu, rng, num_groups=3
    ),
}

SetCoverCall = Callable[[SetCoverInstance, float, np.random.Generator], Any]

#: One set cover driver configuration per digest.
SET_COVER_CONFIGS: dict[str, SetCoverCall] = {
    "set-cover": lambda inst, mu, rng: repro.mpc_weighted_set_cover(inst, mu, rng),
    "set-cover-greedy-0.2": lambda inst, mu, rng: repro.mpc_greedy_set_cover(
        inst, mu, rng, epsilon=0.2
    ),
    "set-cover-greedy-0.5": lambda inst, mu, rng: repro.mpc_greedy_set_cover(
        inst, mu, rng, epsilon=0.5
    ),
}

DIGESTS = {
    "vertex-cover": "83c3a0969a5eaa43f7d75760d50ecbe325390e6171f189c15c5f212dfe6f4f21",
    "maximal-clique": "fa8d1e08a99b78a514232b8c41a5c01cc5ed9a553137f39793f4ed80e461b0b1",
    "matching": "77459404bd66c6b5d61fffd9d3da2a4721bb2fdf1d5c1c33e1a12c2794a3fa88",
    "matching-eta-n": "a19733484e59d7581d5d62733faa4b863acbbe0be279d603f7d34bc1da1af103",
    "b-matching-2-0.1": "866c80e60427d55623065cdbccc0f26e08dd932b76b4ec5fce0b545f33c2d681",
    "b-matching-2-0.5": "ae2b5dcd343c9d9321e93ab286a2bd5b8e0bb0120bfd88b00d80517a735e1aca",
    "b-matching-3-0.1": "b7d1e2e8d705c79cab50f0d093a0e034feb6c30dda3ecff488eb1d1bbb7abcef",
    "b-matching-3-0.5": "409b9f3126b6ddb05512c28409d60d2181062b2bee2a019adb3967334210f629",
    "vertex-colouring": "3b333caeef60563bb315cadb6426bfea8675737e193c5c85f3b3eab95d4e9444",
    "vertex-colouring-3": "9db3e2bc397cc7d30ccfe4567ded529353d7f238520328580568981992172d3e",
    "mis": "55518cfe7a009ceca5564509e43592f41c7199fc3ecabd1fb0c0fb34936fe8ab",
    "edge-colouring": "19be98712b53f7f9b3b251522f115b7fc623480d31b8b565eecdeb6ae199fb42",
    "mis-simple": "f85c6a13fec2e3631fff254121ac64bc0c0d6963c2077093e300a1d60f5ee3d1",
    "edge-colouring-3": "f50476e6e5f52d3296feaa54841190962033560593f572b9e1b6d2c67deb54d9",
    "set-cover": "ab510f27c2ebfcf409590d28bcc4cd4aec4d757446a0494b14beecf8f63de553",
    "set-cover-greedy-0.2": "34505250ee9fb1af5c4cd47b800eb3e8d3e11de64587a05eadb1d943785b10b2",
    "set-cover-greedy-0.5": "06dc4e79ca8728b53b02f17487f377351c3e3af774615378c456cb419421fa0f",
}


@pytest.fixture(scope="module")
def graphs() -> list[tuple[Graph, np.ndarray]]:
    return _graphs()


@pytest.fixture(scope="module")
def instances() -> dict[str, SetCoverInstance]:
    return _instances()


def _set_cover_rng(instance_index: int, m: int, config: str) -> np.random.Generator:
    return np.random.default_rng([instance_index, m, 100 + list(SET_COVER_CONFIGS).index(config)])


@pytest.mark.parametrize("config", list(CONFIGS))
def test_driver_outputs_are_pinned(config, graphs):
    index = list(CONFIGS).index(config)
    outputs = [
        CONFIGS[config](graph, vertex_weights, mu, np.random.default_rng([g, m, index]))
        for g, (graph, vertex_weights) in enumerate(graphs)
        for m, mu in enumerate(MUS)
    ]
    assert _digest(outputs) == DIGESTS[config]


@pytest.mark.parametrize("config", list(SET_COVER_CONFIGS))
def test_set_cover_driver_outputs_are_pinned(config, instances):
    outputs = [
        SET_COVER_CONFIGS[config](instance, mu, _set_cover_rng(i, m, config))
        for i, instance in enumerate(instances.values())
        for m, mu in enumerate(MUS)
    ]
    assert _digest(outputs) == DIGESTS[config]


class _RecordingRng:
    """Passes ``random`` through to a generator and keeps every draw."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.draws: list[np.ndarray] = []

    def random(self, size=None):
        out = self.rng.random(size)
        self.draws.append(out)
        return out


def test_line_15_break_fires(instances):
    """The pinned ``universe-dear`` calls at µ = 0.1 draw a group of more than
    ``4·group_size`` sets, the failure event after which Algorithm 3 skips
    the rest of its class."""
    index, mu = list(instances).index("universe-dear"), MUS[0]
    instance = instances["universe-dear"]
    group_size = max(1, round(instance.num_elements ** (mu / 2.0)))
    for config, epsilon in (("set-cover-greedy-0.2", 0.2), ("set-cover-greedy-0.5", 0.5)):
        rng = _RecordingRng(_set_cover_rng(index, 0, config))
        hungry_greedy_set_cover(instance, mu, rng, epsilon=epsilon)
        oversized = [
            draw
            for draw in rng.draws
            if (draw < min(1.0, group_size / draw.size)).sum() > 4 * group_size
        ]
        assert oversized, config


@pytest.mark.parametrize(
    "population, k",
    [
        (5_000, 40),  # population <= 10,000: Floyd's algorithm
        (20_000, 1_000),  # population > 10,000 and k > population / 50: tail shuffle
        (20_000, 100),  # population > 10,000 and k <= population / 50: Floyd's
    ],
)
def test_choice_by_position_matches_choice_of_array(population, k):
    """Algorithm 6 draws positions, ``rng.choice(len(a), k)``, and indexes ``a``
    with them; NumPy's ``rng.choice(a, k)`` draws the same positions."""
    a = np.random.default_rng(0).permutation(3 * population)[:population]
    for seed in range(5):
        by_array = np.random.default_rng(seed).choice(a, size=k, replace=False)
        positions = np.random.default_rng(seed).choice(len(a), size=k, replace=False)
        assert np.array_equal(a[positions], by_array)
