"""Tests for the execution-backend layer.

The backend contract is that *what* a sweep computes is independent of
*how* it is executed: same seeds ⇒ identical records on every backend, a
cache hit is indistinguishable from a recomputation, and order is always
the input order.  These tests pin that contract down, both on toy point
functions and on real Figure-1 experiments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    BACKENDS,
    BatchBackend,
    MultiprocessingBackend,
    ResultCache,
    SerialBackend,
    SweepPoint,
    config_signature,
    execute_point,
    get_backend,
    point_signature,
    run_sweep,
    spawn_rngs,
)
from repro.experiments import run_figure1
from repro.experiments.harness import ExperimentRecord

#: Executions of :func:`_counting_point` (in-process backends only).
_CALLS: list[str] = []


def _toy_point(rng: np.random.Generator, *, scale: float = 1.0) -> ExperimentRecord:
    """Module-level (hence picklable) toy experiment: one scaled draw."""
    return ExperimentRecord("toy", metrics={"value": scale * float(rng.random())})


def _counting_point(rng: np.random.Generator, *, tag: str = "") -> ExperimentRecord:
    _CALLS.append(tag)
    return ExperimentRecord("counting", metrics={"value": float(rng.random())})


def _toy_points(count: int, *, trials: int = 1, scale: float = 1.0) -> list[SweepPoint]:
    return [
        SweepPoint("toy", _toy_point, {"scale": scale}, seed=(7, i), trials=trials)
        for i in range(count)
    ]


def _metric_values(results) -> list[list[float]]:
    return [[r.metrics["value"] for r in res.records] for res in results]


class TestSweepPointContract:
    def test_execute_point_is_deterministic(self):
        point = SweepPoint("toy", _toy_point, {"scale": 2.0}, seed=3, trials=4)
        a, b = execute_point(point), execute_point(point)
        assert [r.metrics for r in a.records] == [r.metrics for r in b.records]
        assert len(a.records) == 4

    def test_spawn_rngs_accepts_entropy_tuples(self):
        a = [rng.random() for rng in spawn_rngs((5, 0), 2)]
        b = [rng.random() for rng in spawn_rngs((5, 0), 2)]
        c = [rng.random() for rng in spawn_rngs((5, 1), 2)]
        assert a == b and a != c

    def test_spawn_rngs_gives_independent_generators(self):
        draws = [rng.random() for rng in spawn_rngs(7, 4)]
        assert len(draws) == 4 and len(set(draws)) == 4

    def test_spawn_rngs_gives_at_least_one_generator(self):
        assert len(spawn_rngs(0, 0)) == 1

    def test_signatures_separate_seed_from_config(self):
        p1 = SweepPoint("toy", _toy_point, {"scale": 1.0}, seed=0)
        p2 = SweepPoint("toy", _toy_point, {"scale": 1.0}, seed=1)
        p3 = SweepPoint("toy", _toy_point, {"scale": 2.0}, seed=0)
        assert config_signature(p1) == config_signature(p2)
        assert point_signature(p1) != point_signature(p2)
        assert config_signature(p1) != config_signature(p3)


class TestDeterminismAcrossBackends:
    def test_toy_sweep_identical_on_all_backends(self):
        points = _toy_points(6, trials=2)
        reference = _metric_values(SerialBackend().run(points))
        for name in BACKENDS:
            if name == "distributed":
                # Needs live worker processes; the same identity contract is
                # pinned down in tests/distributed/test_coordinator.py.
                continue
            backend = get_backend(name, jobs=2 if name == "mp" else None)
            assert _metric_values(backend.run(points)) == reference, name

    def test_order_is_input_order_not_completion_order(self):
        points = _toy_points(5)
        results = MultiprocessingBackend(jobs=2).run(points)
        reference = [execute_point(p) for p in points]
        assert [r.signature for r in results] == [r.signature for r in reference]

    @pytest.mark.slow
    def test_figure1_grid_identical_serial_vs_mp_vs_batch(self):
        """The acceptance check: a small Figure-1 grid produces identical
        RunMetrics-derived records on every backend."""
        cells = [("fig1-mis", {"n": 60, "c": 0.4}), ("fig1-vertex-colouring", {"n": 80})]
        grids = {
            name: run_figure1(
                seed=11,
                backend=name,
                jobs=2 if name == "mp" else None,
                cells=cells,
            )
            for name in ("serial", "mp", "batch")
        }
        reference = [(r.experiment, r.parameters, r.metrics, r.bounds) for r in grids["serial"]]
        for name in ("mp", "batch"):
            assert [
                (r.experiment, r.parameters, r.metrics, r.bounds) for r in grids[name]
            ] == reference, name


class TestBatchBackend:
    def test_duplicate_points_execute_once(self):
        _CALLS.clear()
        point = SweepPoint("counting", _counting_point, {"tag": "dup"}, seed=1)
        results = BatchBackend().run([point, point, point])
        assert _CALLS == ["dup"]
        assert len(results) == 3
        values = _metric_values(results)
        assert values[0] == values[1] == values[2]

    def test_duplicate_results_do_not_alias(self):
        point = SweepPoint("counting", _counting_point, {"tag": "alias"}, seed=5)
        first, second = BatchBackend().run([point, point])
        assert first is not second and first.records[0] is not second.records[0]
        second.records[0].metrics["value"] = -1.0
        assert first.records[0].metrics["value"] != -1.0

    def test_same_config_different_seed_all_execute(self):
        _CALLS.clear()
        points = [
            SweepPoint("counting", _counting_point, {"tag": "a"}, seed=(1, i)) for i in range(3)
        ]
        results = BatchBackend().run(points)
        assert _CALLS == ["a", "a", "a"]
        flat = [r.metrics["value"] for res in results for r in res.records]
        assert len(set(flat)) == 3


class TestResultCache:
    def test_miss_then_hit_round_trips_records(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points = _toy_points(3)
        first = run_sweep(points, cache=cache)
        assert all(not res.cached for res in first)
        assert len(cache) == 3
        second = run_sweep(points, cache=cache)
        assert all(res.cached for res in second)
        assert _metric_values(second) == _metric_values(first)

    def test_partial_hit_only_computes_missing_points(self, tmp_path):
        _CALLS.clear()
        cache = ResultCache(tmp_path)
        make = lambda i: SweepPoint("counting", _counting_point, {"tag": f"p{i}"}, seed=(2, i))
        run_sweep([make(0), make(1)], cache=cache)
        assert _CALLS == ["p0", "p1"]
        run_sweep([make(0), make(1), make(2)], cache=cache)
        assert _CALLS == ["p0", "p1", "p2"]  # only p2 recomputed

    def test_different_seed_or_kwargs_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = SweepPoint("toy", _toy_point, {"scale": 1.0}, seed=0)
        run_sweep([base], cache=cache)
        assert cache.load(SweepPoint("toy", _toy_point, {"scale": 1.0}, seed=1)) is None
        assert cache.load(SweepPoint("toy", _toy_point, {"scale": 3.0}, seed=0)) is None
        assert cache.load(base) is not None

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda entry: b"not json", id="not-json"),
            pytest.param(lambda entry: b"\xff\xfe not utf-8", id="not-utf8"),
            pytest.param(lambda entry: b"[]", id="list"),
            pytest.param(lambda entry: b'"x"', id="string"),
            pytest.param(
                lambda entry: entry.replace(b'"value": ', b'"value": "abc", "was": '),
                id="non-numeric-metric",
            ),
            pytest.param(
                lambda entry: entry.replace(b'"metrics": {', b'"metrics": [], "was": {'),
                id="metrics-not-an-object",
            ),
        ],
    )
    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path, corrupt):
        cache = ResultCache(tmp_path)
        point = _toy_points(1)[0]
        run_sweep([point], cache=cache)
        path = cache.path_for(point)
        entry = path.read_bytes()
        path.write_bytes(corrupt(entry))
        assert path.read_bytes() != entry
        assert cache.load(point) is None
        # run_sweep recovers by recomputing and repairing the entry.
        [result] = run_sweep([point], cache=cache)
        assert not result.cached
        assert cache.load(point) is not None

    def test_loaded_result_carries_the_stamp_of_its_entry_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _toy_points(1)[0]
        [computed] = run_sweep([point], cache=cache)
        assert computed.stamp is None
        stamp = cache.load(point).stamp
        assert stamp.path == str(cache.path_for(point))
        assert stamp.current()
        cache.store(point, computed)  # the same bytes, published as a new file
        assert not stamp.current()
        stamp = cache.load(point).stamp
        assert stamp.current()
        cache.path_for(point).unlink()
        assert not stamp.current()

    def test_entry_from_other_package_version_is_a_miss(self, tmp_path):
        import json as json_mod

        cache = ResultCache(tmp_path)
        point = _toy_points(1)[0]
        run_sweep([point], cache=cache)
        path = cache.path_for(point)
        payload = json_mod.loads(path.read_text(encoding="utf-8"))
        payload["repro_version"] = "0.0.0-other"
        path.write_text(json_mod.dumps(payload), encoding="utf-8")
        assert cache.load(point) is None

    def test_clear_empties_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_toy_points(2), cache=cache)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_directory_path_accepted_directly(self, tmp_path):
        first = run_sweep(_toy_points(1), cache=tmp_path / "c")
        second = run_sweep(_toy_points(1), cache=tmp_path / "c")
        assert not first[0].cached and second[0].cached


class TestBackendResolution:
    def test_default_is_serial(self):
        assert isinstance(get_backend(None), SerialBackend)

    def test_names_resolve(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("batch"), BatchBackend)
        assert isinstance(get_backend("mp", jobs=3), MultiprocessingBackend)
        assert get_backend("multiprocessing", jobs=3).jobs == 3

    def test_instance_passthrough(self):
        backend = BatchBackend()
        assert get_backend(backend) is backend

    def test_jobs_with_instance_rejected(self):
        with pytest.raises(ValueError):
            get_backend(SerialBackend(), jobs=2)

    def test_jobs_with_workerless_backend_rejected(self):
        with pytest.raises(ValueError, match="only meaningful"):
            get_backend("serial", jobs=2)
        with pytest.raises(ValueError, match="only meaningful"):
            get_backend("batch", jobs=2)

    def test_closure_fns_get_distinct_signatures(self):
        # Same qualname ('<locals>.<lambda>') must not collide: memoisation
        # or caching would otherwise serve one point's result for another.
        fns = [(lambda rng, _s=s: ExperimentRecord("c", metrics={"v": _s})) for s in (1.0, 2.0)]
        p1 = SweepPoint("c", fns[0], seed=0)
        p2 = SweepPoint("c", fns[1], seed=0)
        assert point_signature(p1) != point_signature(p2)
        [r1, r2] = BatchBackend().run([p1, p2])
        assert r1.records[0].metrics["v"] == 1.0
        assert r2.records[0].metrics["v"] == 2.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_backend("dask")

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            MultiprocessingBackend(jobs=0)

    def test_mp_single_job_runs_in_process(self):
        # jobs=1 must not pay process-pool overhead — and must still match.
        points = _toy_points(2)
        assert _metric_values(MultiprocessingBackend(jobs=1).run(points)) == _metric_values(
            SerialBackend().run(points)
        )

    def test_empty_sweep(self):
        assert run_sweep([], backend="mp", jobs=2) == []
