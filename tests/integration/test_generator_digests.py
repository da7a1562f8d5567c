"""Instance generators pinned bit for bit, generator state included.

Every Figure-1 row and every benchmark workload builds its instance with
one of three generators: ``random_frequency_bounded_instance`` (Theorem
2.4's frequency-``f`` set cover), ``random_coverage_instance`` (the greedy
regime) and ``gnm_graph`` (behind ``densified_graph``).  Each case below is
pinned by one sha256 digest of the instance (CSR arrays and weights, or
edge arrays and weights, by dtype, shape and bytes) and of what the
generator draws next: three ``integers(0, 1000)`` and one ``random()``.
The integers come first because they read PCG64's buffered 32-bit half
word, which ``random()`` skips, so a generator that leaves that half in the
wrong place changes the digest.

The cases reach each branch of the draws the generators make: ``f = 1``
and ``num_sets = 1`` (no word for the frequency or the owner), ``f =
num_sets`` (the first Floyd draw has range 0 and takes no word), no
elements, the Figure-1 shape, Floyd's algorithm above 10,000 sets,
NumPy's tail shuffle (more than 10,000 sets, ``k > num_sets // 50``), a
PCG64 generator with its half word buffered on entry and an MT19937 one,
the coverage generator's uncovered-element pass, and ``G(n, m)``'s sparse
and dense regimes.

The digests were recorded while the generators still made their draws one
element at a time.  Those loops are kept below as oracles: the generators
now make the same draws in bulk, and about 200 random shapes, over five bit
generators, check that they return the same arrays and weight bytes and
leave the generator in the same state.  A stub generator forces
``G(n, m)``'s second batch, which no real seed reaches, and the bounded
draw the set cover generator replays is checked against
``rng.integers(0, r + 1, size=...)`` at five ranges, one of which rejects
about half its words.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np
import pytest

from repro.graphs.generators import _sample_distinct_edges, densified_graph, gnm_graph
from repro.graphs.graph import Graph
from repro.setcover.generators import (
    _bounded,
    _words,
    random_coverage_instance,
    random_frequency_bounded_instance,
)
from repro.setcover.instance import SetCoverInstance

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM)


def _pcg(seed: int, *, skip: bool = False) -> np.random.Generator:
    rng = np.random.default_rng(seed)
    if skip:
        rng.integers(0, 10)  # leaves half of a 64-bit output buffered
    return rng


def _mt(seed: int) -> np.random.Generator:
    rng = np.random.Generator(np.random.MT19937(seed))
    rng.integers(0, 10)
    return rng


def _arrays(built: SetCoverInstance | Graph) -> list[np.ndarray]:
    if isinstance(built, Graph):
        return [np.asarray(built.num_vertices), built.edge_u, built.edge_v, built.weights]
    indptr, indices = built.set_incidence()
    return [np.asarray(built.num_elements), indptr, indices, built.weights]


def _digest(built: SetCoverInstance | Graph, rng: np.random.Generator) -> str:
    """sha256 of the instance's arrays and of the generator's next draws."""
    h = hashlib.sha256()
    for array in _arrays(built):
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    follow = [int(rng.integers(0, 1000)) for _ in range(3)] + [rng.random().hex()]
    h.update(repr(follow).encode())
    return h.hexdigest()


Build = Callable[[np.random.Generator], SetCoverInstance | Graph]

CASES: dict[str, tuple[Callable[[], np.random.Generator], Build, str]] = {
    "f-one": (
        lambda: _pcg(1),
        lambda rng: random_frequency_bounded_instance(30, 200, 1, rng),
        "f15b0beea14e54fc6434aaf2d3bf7cf92a36afd1fb9bbaf377616e17ba94d3d8",
    ),
    "one-set": (
        lambda: _pcg(2),
        lambda rng: random_frequency_bounded_instance(1, 50, 1, rng),
        "cd75753f08e9eeb2128073778dbbf8c60d780292f8aa48100ed45ac8e2133c6f",
    ),
    "f-equals-sets": (
        lambda: _pcg(3),
        lambda rng: random_frequency_bounded_instance(5, 300, 5, rng),
        "429ca0b2e256a02a5178cab2831b0d81a3a5636f5adbe9e84bf2a2d13f458b61",
    ),
    "no-elements": (
        lambda: _pcg(4),
        lambda rng: random_frequency_bounded_instance(10, 0, 3, rng),
        "26924067c0287170f7dcd70f6d3c3ea19be729c7e6d79a23fe3712393e898ea9",
    ),
    "figure-1": (
        lambda: _pcg(2018),
        lambda rng: random_frequency_bounded_instance(60, 900, 4, rng),
        "3f14aa39c3ddcf567efb671c5edb6c5f01bc288c64b75941352c90c77b2f1b6e",
    ),
    "floyd-above-10000": (
        lambda: _pcg(5),
        lambda rng: random_frequency_bounded_instance(12_000, 3_000, 4, rng),
        "ae312f8e898e4dea298c8e1ff6531a3e488a6f812c3b80c57322ca118cf04c01",
    ),
    "tail-shuffle": (
        lambda: _pcg(6),
        lambda rng: random_frequency_bounded_instance(10_050, 40, 250, rng),
        "7a31615fb9e6a4a155b51719af46bc58af099d99f4922dfe4da801d6776886eb",
    ),
    "pcg64-half-word": (
        lambda: _pcg(7, skip=True),
        lambda rng: random_frequency_bounded_instance(60, 900, 4, rng),
        "5de3fb70d60418e987610e04c104c5a1c614b6dc03a6c75ad7d02a85ff9ff564",
    ),
    "mt19937": (
        lambda: _mt(8),
        lambda rng: random_frequency_bounded_instance(60, 900, 4, rng),
        "232043854bccb00bd17d5946a41bbb0e4f4b97709c0fe04e0029a240c4f6bbc5",
    ),
    "coverage-dense": (
        lambda: _pcg(9),
        lambda rng: random_coverage_instance(220, 60, rng, density=0.08),
        "6138c79ae4b346f2c4f4815ec6589cec8e04dcf579775c547a205bd7466fd7b1",
    ),
    "coverage-uncovered": (
        lambda: _pcg(10, skip=True),
        lambda rng: random_coverage_instance(40, 500, rng, density=0.002),
        "34941ff31639df8c753771239219caf2dc1151956c79fd331ba0c106a75e4c8f",
    ),
    "gnm-sparse": (
        lambda: _pcg(11),
        lambda rng: gnm_graph(400, 3_000, rng, weights="uniform"),
        "63b7458565e54a5215b91958502a54be45f2bdbab24c7fb773460036eeb050ec",
    ),
    "gnm-dense": (
        lambda: _pcg(12, skip=True),
        lambda rng: gnm_graph(60, 1_200, rng, weights="uniform"),
        "24fea2e7b2970070015d4ea72343e7942dba3f16e10e45b6c5413fad8e5ba64d",
    ),
    "densified-figure-1": (
        lambda: _pcg(2018),
        lambda rng: densified_graph(200, 0.45, rng),
        "1a2fb9a3349f54cd329894a43f51f2da1f074a424a3a7427458abb7df085ada4",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_generator_digest(name):
    make_rng, build, expected = CASES[name]
    rng = make_rng()
    assert _digest(build(rng), rng) == expected


# --------------------------------------------------------------------------- #
# The per-element loops the generators replaced, kept as oracles
# --------------------------------------------------------------------------- #
def _frequency_bounded_oracle(num_sets, num_elements, max_frequency, rng):
    members: list[list[int]] = [[] for _ in range(num_sets)]
    for element in range(num_elements):
        k = int(rng.integers(1, max_frequency + 1))
        owners = rng.choice(num_sets, size=k, replace=False)
        for set_id in owners:
            members[int(set_id)].append(element)
    weights = rng.uniform(1.0, 10.0, size=num_sets)
    return SetCoverInstance(members, weights, num_elements=num_elements)


def _coverage_oracle(num_sets, num_elements, rng, *, density):
    incidence = rng.random((num_sets, num_elements)) < density
    uncovered = ~incidence.any(axis=0)
    for element in np.flatnonzero(uncovered):
        incidence[int(rng.integers(0, num_sets)), element] = True
    members = [np.flatnonzero(incidence[i]) for i in range(num_sets)]
    weights = rng.uniform(1.0, 10.0, size=num_sets)
    return SetCoverInstance(members, weights, num_elements=num_elements)


def _distinct_edges_oracle(num_vertices, num_edges, rng):
    """The sparse regime of ``_sample_distinct_edges``, one pair at a time."""
    n = num_vertices
    keys: set[int] = set()
    accepted: list[int] = []  # keys in acceptance order
    while len(accepted) < num_edges:
        batch = max(1024, 2 * (num_edges - len(accepted)))
        u = rng.integers(0, n, size=batch).tolist()
        v = rng.integers(0, n, size=batch).tolist()
        for a, b in zip(u, v):
            if a == b:
                continue
            key = a * n + b if a < b else b * n + a
            if key in keys:
                continue
            keys.add(key)
            accepted.append(key)
            if len(accepted) == num_edges:
                break
    lo, hi = np.divmod(np.array(accepted, dtype=np.int64), n)
    return np.column_stack([lo, hi])


def _gnm_oracle(num_vertices, num_edges, rng, *, weights):
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges == 0 or num_edges > max_edges // 2:
        edges = _sample_distinct_edges(num_vertices, num_edges, rng)  # unchanged branches
    else:
        edges = _distinct_edges_oracle(num_vertices, num_edges, rng)
    w = None if weights is None else rng.uniform(1.0, 100.0, size=len(edges))
    return Graph(num_vertices, edges, w, validate=False)


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(a.bit_generator.state) == plain(b.bit_generator.state)


def _shapes(count: int = 200) -> list[tuple]:
    """``count`` random (args, bit generator, seed, warm) shapes; ``args[0]`` names the generator."""
    draw = np.random.default_rng(20181)
    shapes = []
    for index in range(count):
        bit_generator = BIT_GENERATORS[index // 5 % len(BIT_GENERATORS)]
        seed, warm = int(draw.integers(0, 2**32)), bool(draw.integers(0, 2))
        kind = index % 5
        if kind in (0, 1, 2):
            band = int(draw.integers(0, 4))
            if band == 3:  # above 10,000 sets: Floyd for small k, the tail shuffle above num_sets // 50
                num_sets = int(draw.integers(10_001, 12_500))
                f = int(draw.integers(150, 300))
                num_elements = int(draw.integers(0, 12))
            else:
                num_sets = int(draw.integers(1, (8, 60, 10_000)[band] + 1))
                f = int(draw.integers(1, min(num_sets, 12) + 1))
                num_elements = int(draw.integers(0, 150))
            args = ("frequency", num_sets, num_elements, f)
        elif kind == 3:
            num_sets = int(draw.integers(1, 60))
            num_elements = int(draw.integers(0, 300))
            density = float(draw.choice([0.001, 0.01, 0.05, 0.2, 1.0]))
            args = ("coverage", num_sets, num_elements, density)
        else:
            n = int(draw.integers(2, 300))
            m = int(draw.integers(0, n * (n - 1) // 2 + 1))
            args = ("gnm", n, m, draw.choice([None, "uniform"]))
        shapes.append((args, bit_generator, seed, warm))
    return shapes


def _build(args, rng, *, oracle: bool):
    kind, *rest = args
    if kind == "frequency":
        build = _frequency_bounded_oracle if oracle else random_frequency_bounded_instance
        return build(*rest, rng)
    if kind == "coverage":
        num_sets, num_elements, density = rest
        build = _coverage_oracle if oracle else random_coverage_instance
        return build(num_sets, num_elements, rng, density=density)
    n, m, weights = rest
    return (_gnm_oracle if oracle else gnm_graph)(n, m, rng, weights=weights)


@pytest.mark.parametrize("start", range(0, 200, 25))
def test_bulk_draws_match_per_element_oracles(start):
    for args, bit_generator, seed, warm in _shapes()[start:start + 25]:
        rngs = []
        for _ in range(2):
            rng = np.random.Generator(bit_generator(seed))
            if warm:
                rng.integers(0, 10)
            rngs.append(rng)
        expected = _build(args, rngs[0], oracle=True)
        built = _build(args, rngs[1], oracle=False)
        for want, got in zip(_arrays(expected), _arrays(built)):
            assert want.dtype == got.dtype and want.tobytes() == got.tobytes(), args
        assert _same_state(rngs[0], rngs[1]), args
        assert _digest(expected, rngs[0]) == _digest(built, rngs[1]), args


class _RepeatedFirstBatch:
    """A generator whose first batch of endpoints is the pair (0, 1) over and over.

    The second batch opens with the same pair reversed, which must not be
    accepted twice.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._calls = 0

    def integers(self, low, high, size):
        self._calls += 1
        if self._calls <= 2:  # u, then v, of the first batch
            return np.full(size, self._calls - 1, dtype=np.int64)
        drawn = self._rng.integers(low, high, size=size)
        if self._calls <= 4:  # u, then v, of the second batch
            drawn[0] = 4 - self._calls
        return drawn


@pytest.mark.parametrize("n, m", [(50, 3), (200, 1_500), (2_000, 1_024)])
def test_second_batch_skips_keys_accepted_before(n, m):
    edges = _sample_distinct_edges(n, m, _RepeatedFirstBatch(n))
    np.testing.assert_array_equal(edges, _distinct_edges_oracle(n, m, _RepeatedFirstBatch(n)))
    assert edges[0].tolist() == [0, 1] and len({tuple(e) for e in edges.tolist()}) == m


@pytest.mark.parametrize("r", [3, 1_000_003, 2**31, 2**31 + 12_345, 2**32 - 2])
def test_bounded_draw_matches_numpy(r):
    expected_rng, rng = np.random.default_rng(r), np.random.default_rng(r)
    expected_rng.integers(0, 10)
    rng.integers(0, 10)  # a half word is buffered on entry
    expected = expected_rng.integers(0, r + 1, size=400).tolist()
    fetches = []
    words = _words(rng, lambda: fetches.append(1) or 1)
    assert [_bounded(words, r) for _ in range(400)] == expected
    assert _same_state(expected_rng, rng)
    if r == 2**31:  # the rejection branch: about half of all words are redrawn
        assert len(fetches) > 700
