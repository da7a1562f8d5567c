"""Store tests: bitwise round-trips, header contract, corruption detection."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets.store as store_module
from repro.datasets import (
    ChecksumError,
    DatasetError,
    DatasetFormatError,
    load_dataset,
    read_header,
    save_dataset,
)
from repro.graphs import Graph, gnm_graph
from repro.setcover import (
    SetCoverInstance,
    random_coverage_instance,
    random_frequency_bounded_instance,
)


def assert_graph_bitwise_equal(a: Graph, b: Graph) -> None:
    assert a.num_vertices == b.num_vertices
    for column in ("edge_u", "edge_v", "weights"):
        left, right = getattr(a, column), getattr(b, column)
        assert left.dtype == right.dtype
        assert left.tobytes() == right.tobytes()


def assert_instance_bitwise_equal(a: SetCoverInstance, b: SetCoverInstance) -> None:
    assert a.num_sets == b.num_sets and a.num_elements == b.num_elements
    for (left, right) in zip(a.set_incidence(), b.set_incidence()):
        assert left.dtype == right.dtype
        assert left.tobytes() == right.tobytes()
    assert a.weights.dtype == b.weights.dtype
    assert a.weights.tobytes() == b.weights.tobytes()


@st.composite
def graphs(draw, max_vertices: int = 12):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    if edges and draw(st.booleans()):
        weights = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
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
    sets[-1] = list(range(m))  # guarantee feasibility
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    return SetCoverInstance(sets, weights, num_elements=m)


class TestGraphRoundTrip:
    def test_weighted_graph_bitwise(self, tmp_path, rng):
        graph = gnm_graph(60, 240, rng, weights="uniform")
        path = tmp_path / "g.npz"
        save_dataset(path, graph)
        assert_graph_bitwise_equal(graph, load_dataset(path))

    def test_unweighted_and_mmap_modes_agree(self, tmp_path, rng):
        graph = gnm_graph(30, 90, rng)
        path = tmp_path / "g.npz"
        save_dataset(path, graph)
        assert_graph_bitwise_equal(load_dataset(path, mmap=True), load_dataset(path, mmap=False))

    def test_mmap_load_is_memory_mapped(self, tmp_path, rng):
        graph = gnm_graph(30, 90, rng)
        path = tmp_path / "g.npz"
        save_dataset(path, graph)
        loaded = load_dataset(path, mmap=True)
        base = loaded.edge_u if isinstance(loaded.edge_u, np.memmap) else loaded.edge_u.base
        assert isinstance(base, np.memmap)
        assert not loaded.edge_u.flags.owndata

    def test_empty_edge_set(self, tmp_path):
        graph = Graph(5, [])
        path = tmp_path / "empty.npz"
        save_dataset(path, graph)
        loaded = load_dataset(path)
        assert loaded.num_vertices == 5 and loaded.num_edges == 0

    def test_loaded_graph_behaves(self, tmp_path, rng):
        graph = gnm_graph(40, 120, rng, weights="uniform")
        path = tmp_path / "g.npz"
        save_dataset(path, graph)
        loaded = load_dataset(path)
        assert loaded.max_degree() == graph.max_degree()
        assert np.array_equal(loaded.degrees(), graph.degrees())
        assert loaded.total_weight() == graph.total_weight()

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs())
    def test_round_trip_property(self, tmp_path_factory, graph):
        path = tmp_path_factory.mktemp("store") / "g.npz"
        save_dataset(path, graph)
        assert_graph_bitwise_equal(graph, load_dataset(path))


class TestSetCoverRoundTrip:
    def test_coverage_instance_bitwise(self, tmp_path, rng):
        instance = random_coverage_instance(50, 20, rng)
        path = tmp_path / "sc.npz"
        save_dataset(path, instance)
        assert_instance_bitwise_equal(instance, load_dataset(path))

    def test_frequency_instance_structure_preserved(self, tmp_path, rng):
        instance = random_frequency_bounded_instance(20, 120, 3, rng)
        path = tmp_path / "sc.npz"
        save_dataset(path, instance)
        loaded = load_dataset(path)
        assert loaded.frequency == instance.frequency
        assert loaded.max_set_size == instance.max_set_size
        # The dual (element) incidence is rebuilt lazily and must agree too.
        for left, right in zip(instance.element_incidence(), loaded.element_incidence()):
            assert left.tobytes() == right.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(instance=set_cover_instances())
    def test_round_trip_property(self, tmp_path_factory, instance):
        path = tmp_path_factory.mktemp("store") / "sc.npz"
        save_dataset(path, instance)
        assert_instance_bitwise_equal(instance, load_dataset(path))


class TestHeaderContract:
    def test_header_fields(self, tmp_path, rng):
        graph = gnm_graph(10, 20, rng)
        path = tmp_path / "g.npz"
        save_dataset(path, graph, name="toy", source="unit-test", extra={"origin": "synthetic"})
        header = read_header(path)
        assert header["magic"] == store_module.MAGIC
        assert header["schema_version"] == store_module.SCHEMA_VERSION
        assert header["kind"] == "graph"
        assert header["num_vertices"] == 10 and header["num_edges"] == 20
        assert header["name"] == "toy" and header["source"] == "unit-test"
        assert header["extra"] == {"origin": "synthetic"}
        assert set(header["checksums"]) == {"edge_u", "edge_v", "edge_w"}

    def test_save_respects_the_exact_path(self, tmp_path, rng):
        # np.savez appends '.npz' to bare path strings; the store must not.
        graph = gnm_graph(10, 20, rng)
        path = tmp_path / "dataset.store"
        save_dataset(path, graph)
        assert path.exists() and not (tmp_path / "dataset.store.npz").exists()
        assert load_dataset(path).num_edges == 20

    def test_save_rejects_other_objects(self, tmp_path):
        with pytest.raises(DatasetError, match="Graph or SetCoverInstance"):
            save_dataset(tmp_path / "x.npz", {"not": "a dataset"})


class TestCorruptionAndFormatErrors:
    def _saved_graph(self, tmp_path, rng):
        graph = gnm_graph(30, 90, rng, weights="uniform")
        path = tmp_path / "g.npz"
        save_dataset(path, graph)
        return path

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "plain.npz"
        path.write_text("this is not a zip file")
        with pytest.raises(DatasetFormatError, match="not a stored dataset"):
            load_dataset(path)

    def test_plain_npz_without_header(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, a=np.arange(3))
        with pytest.raises(DatasetFormatError, match="__header__"):
            load_dataset(path)

    def test_future_schema_version_rejected(self, tmp_path, rng, monkeypatch):
        graph = gnm_graph(10, 20, rng)
        path = tmp_path / "g.npz"
        monkeypatch.setattr(store_module, "SCHEMA_VERSION", 99)
        save_dataset(path, graph)
        monkeypatch.undo()
        with pytest.raises(DatasetFormatError, match="schema version"):
            load_dataset(path)

    def test_flipped_byte_detected(self, tmp_path, rng):
        path = self._saved_graph(tmp_path, rng)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # lands in a column payload
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError, match="corrupt"):
            load_dataset(path)

    def test_verify_false_skips_checksums(self, tmp_path, rng):
        path = self._saved_graph(tmp_path, rng)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        load_dataset(path, verify=False)  # loads without raising

    def test_truncated_file_rejected(self, tmp_path, rng):
        path = self._saved_graph(tmp_path, rng)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DatasetError):
            load_dataset(path)


def _saved_instance_with_weights(tmp_path, weights) -> Path:
    """Three sets over three elements, written through the trusted constructor."""
    instance = SetCoverInstance.from_csr(
        np.array([0, 2, 4, 6]), np.array([0, 1, 1, 2, 0, 2]), np.asarray(weights), num_elements=3
    )
    path = tmp_path / "weights.npz"
    save_dataset(path, instance)
    return path


def _saved_graph_with_weights(tmp_path, weights) -> Path:
    graph = Graph.from_arrays(3, np.array([0, 0, 1]), np.array([1, 2, 2]), np.asarray(weights))
    path = tmp_path / "weights.npz"
    save_dataset(path, graph)
    return path


class TestWeightInvariantAtLoad:
    """``save_dataset`` writes any object, so a load refuses the weights the
    constructors reject (set weights positive and finite, edge weights
    finite), with or without checksum verification."""

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_set_weight_must_be_positive_and_finite(self, tmp_path, bad, verify):
        path = _saved_instance_with_weights(tmp_path, [1.0, bad, 1.0])
        with pytest.raises(DatasetFormatError, match=r"'set_weights' holds .* at index 1"):
            load_dataset(path, verify=verify)

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_edge_weight_must_be_finite(self, tmp_path, bad, verify):
        path = _saved_graph_with_weights(tmp_path, [1.0, 2.0, bad])
        with pytest.raises(DatasetFormatError, match=r"'edge_w' holds .* at index 2"):
            load_dataset(path, verify=verify)

    def test_valid_weights_still_load(self, tmp_path):
        # A negative edge weight is finite, which is all a Graph requires.
        graph = load_dataset(_saved_graph_with_weights(tmp_path, [1.0, -2.0, 0.0]))
        assert graph.weights.tolist() == [1.0, -2.0, 0.0]
