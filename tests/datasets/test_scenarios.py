"""Scenario registry tests: named scenarios, file: scenarios, kind checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    SCENARIOS,
    InstanceCache,
    Scenario,
    build_scenario,
    ensure_edge_weights,
    instance_cache_stats,
    register_scenario,
    resolve_scenario,
    save_dataset,
    scenario_names,
)
from repro.graphs import Graph, gnm_graph
from repro.setcover import SetCoverInstance


class TestRegistry:
    def test_builtin_scenarios_present(self):
        assert {
            "social-sparse",
            "powerlaw-dense",
            "bipartite-b-matching",
            "coverage-planning",
        } <= set(scenario_names())

    def test_kinds(self):
        assert SCENARIOS["social-sparse"].kind == "graph"
        assert SCENARIOS["coverage-planning"].kind == "setcover"

    def test_every_builtin_builds(self):
        for name in scenario_names():
            obj = build_scenario(name, np.random.default_rng(0))
            assert isinstance(obj, (Graph, SetCoverInstance))

    def test_builds_are_deterministic_in_the_rng(self):
        a = build_scenario("social-sparse", np.random.default_rng(7))
        b = build_scenario("social-sparse", np.random.default_rng(7))
        assert a.edge_u.tobytes() == b.edge_u.tobytes()
        assert a.edge_v.tobytes() == b.edge_v.tobytes()

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(SCENARIOS["social-sparse"])

    def test_register_file_prefix_rejected(self):
        bogus = Scenario(
            name="file:sneaky", kind="graph", description="", build=lambda rng: None
        )
        with pytest.raises(ValueError, match="must not start with"):
            register_scenario(bogus)

    def test_register_and_overwrite(self):
        extra = Scenario(
            name="unit-test-scenario",
            kind="graph",
            description="ephemeral",
            build=lambda rng: gnm_graph(5, 4, rng),
        )
        try:
            register_scenario(extra)
            assert build_scenario("unit-test-scenario", np.random.default_rng(0)).num_edges == 4
            register_scenario(extra, overwrite=True)
        finally:
            SCENARIOS.pop("unit-test-scenario", None)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Scenario(name="x", kind="tensor", description="", build=lambda rng: None)


class TestResolution:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            resolve_scenario("does-not-exist")

    def test_empty_spec(self):
        with pytest.raises(ValueError, match="non-empty string"):
            resolve_scenario("")

    def test_file_scenario_missing_path(self):
        with pytest.raises(ValueError, match="missing its path"):
            resolve_scenario("file:")

    def test_file_scenario_from_store(self, tmp_path, rng):
        graph = gnm_graph(20, 50, rng, weights="uniform")
        path = tmp_path / "g.npz"
        save_dataset(path, graph)
        scenario = resolve_scenario(f"file:{path}")
        assert scenario.kind == "graph"
        built = scenario.build(np.random.default_rng(0))
        assert built.num_edges == 50
        assert built.weights.tobytes() == graph.weights.tobytes()

    def test_file_scenario_from_raw_text(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        scenario = resolve_scenario(f"file:{path}")
        assert scenario.kind == "graph"
        assert scenario.build(np.random.default_rng(0)).num_edges == 3

    def test_kind_mismatch_message_names_the_context(self, tmp_path):
        path = tmp_path / "sc.sc"
        path.write_text("p setcover 1 1\ns 1.0 0\n")
        with pytest.raises(ValueError, match="my-experiment needs a graph"):
            build_scenario(f"file:{path}", np.random.default_rng(0), expect="graph",
                           context="my-experiment")


class TestInstanceCache:
    def _write(self, tmp_path, name, edges):
        path = tmp_path / name
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        return path

    def test_hit_skips_reingestion(self, tmp_path):
        cache = InstanceCache(capacity=4)
        path = self._write(tmp_path, "a.txt", [(0, 1), (1, 2)])
        _, first, _ = cache.load(str(path))
        _, second, _ = cache.load(str(path))
        assert first is second  # same materialized object, no re-parse
        assert (cache.hits, cache.misses) == (1, 1)

    def test_stat_change_invalidates(self, tmp_path):
        cache = InstanceCache(capacity=4)
        path = self._write(tmp_path, "a.txt", [(0, 1)])
        cache.load(str(path))
        self._write(tmp_path, "a.txt", [(0, 1), (1, 2), (2, 3)])
        _, obj, _ = cache.load(str(path))
        assert obj.num_edges == 3
        assert cache.misses == 2

    def test_lru_evicts_least_recently_used(self, tmp_path):
        cache = InstanceCache(capacity=2)
        paths = [self._write(tmp_path, f"{i}.txt", [(0, 1)]) for i in range(3)]
        cache.load(str(paths[0]))
        cache.load(str(paths[1]))
        cache.load(str(paths[0]))  # refresh 0; 1 is now least recent
        cache.load(str(paths[2]))  # evicts 1
        hits_before = cache.hits
        cache.load(str(paths[0]))
        assert cache.hits == hits_before + 1  # 0 survived
        misses_before = cache.misses
        cache.load(str(paths[1]))
        assert cache.misses == misses_before + 1  # 1 was evicted

    def test_stats_count_lookups_and_entries(self, tmp_path):
        cache = InstanceCache(capacity=2)
        for i in range(3):
            cache.load(str(self._write(tmp_path, f"{i}.txt", [(0, 1)])))
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["capacity"] == 2
        assert stats["hits"] + stats["misses"] == 3
        with pytest.raises(ValueError):
            InstanceCache(capacity=0)

    def test_missing_file_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            InstanceCache().load(str(tmp_path / "nope.txt"))

    def test_concurrent_loads_are_thread_safe(self, tmp_path):
        # Regression: the hit path's pop/reinsert recency refresh could
        # KeyError when two threads (service event loop + sweep worker)
        # raced on the same entry.
        import threading

        cache = InstanceCache(capacity=2)
        paths = [str(self._write(tmp_path, f"{i}.txt", [(0, 1)])) for i in range(3)]
        errors: list[BaseException] = []

        def hammer(path):
            try:
                for _ in range(300):
                    _, obj, _ = cache.load(path)
                    assert obj.num_edges == 1
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(paths[i % 3],)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 6 * 300

    def test_process_wide_cache_has_a_fixed_capacity(self):
        assert instance_cache_stats()["capacity"] == 64


class TestEnsureEdgeWeights:
    def test_unit_weights_replaced(self, rng):
        graph = gnm_graph(20, 40, rng)  # all weights 1.0
        weighted = ensure_edge_weights(graph, np.random.default_rng(1))
        assert not np.all(weighted.weights == 1.0)
        assert np.array_equal(weighted.edge_u, graph.edge_u)

    def test_real_weights_kept(self, rng):
        graph = gnm_graph(20, 40, rng, weights="uniform")
        weighted = ensure_edge_weights(graph, np.random.default_rng(1))
        assert weighted is graph

    def test_deterministic_in_the_rng(self, rng):
        graph = gnm_graph(20, 40, rng)
        a = ensure_edge_weights(graph, np.random.default_rng(3))
        b = ensure_edge_weights(graph, np.random.default_rng(3))
        assert a.weights.tobytes() == b.weights.tobytes()
