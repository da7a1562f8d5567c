"""Coordinator tests against live in-process workers.

The load-bearing contract: a distributed sweep is **byte-identical** to a
serial one — same records, same order — no matter how the points were
sharded, replicated, or requeued after a worker death.  Workers here are
real :class:`~repro.service.server.SolverService` instances in worker
mode, talked to over real HTTP on loopback; only the processes are shared
with the test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    DistributedBackend,
    ResultCache,
    SerialBackend,
    get_backend,
    run_sweep,
)
from repro.backends.base import SweepPoint
from repro.backends.cache import record_to_payload
from repro.backends.distributed import WORKERS_ENV, workers_from_env
from repro.distributed import (
    Coordinator,
    DistributedError,
    RemoteExecutionError,
)
from repro.distributed.coordinator import _parse_address
from repro.experiments.harness import ExperimentRecord
from repro.service import ServiceConfig, start_in_background

#: The workers here execute serially, with fixed batching.
WORKER = ServiceConfig(backend="serial", adaptive=False)


def coord_point_fn(rng: np.random.Generator, *, scale: float = 1.0) -> ExperimentRecord:
    return ExperimentRecord("coord", metrics={"value": scale * float(rng.random())})


def failing_point_fn(rng: np.random.Generator, *, n: int = 0) -> ExperimentRecord:
    raise ValueError(f"boom({n})")


def slow_point_fn(rng: np.random.Generator, *, delay: float = 0.05) -> ExperimentRecord:
    import time

    time.sleep(delay)
    return ExperimentRecord("coord", metrics={"value": float(rng.random())})


def _points(count: int, *, scale: float = 1.0, trials: int = 2) -> list[SweepPoint]:
    return [
        SweepPoint("coord", coord_point_fn, {"scale": scale}, seed=(9, i), trials=trials)
        for i in range(count)
    ]


def _payloads(results) -> list[list[dict]]:
    return [[record_to_payload(r) for r in result.records] for result in results]


@pytest.fixture(scope="module")
def workers():
    with start_in_background(WORKER, worker=True) as a:
        with start_in_background(WORKER, worker=True) as b:
            yield [f"127.0.0.1:{a.port}", f"127.0.0.1:{b.port}"]


class TestByteIdentity:
    def test_distributed_sweep_equals_serial(self, workers):
        points = _points(7)
        serial = SerialBackend().run(points)
        distributed = Coordinator(workers).run(points)
        assert _payloads(distributed) == _payloads(serial)
        assert [r.signature for r in distributed] == [r.signature for r in serial]
        assert [r.experiment for r in distributed] == [r.experiment for r in serial]

    def test_duplicate_points_each_get_their_result(self, workers):
        base = _points(2)
        points = base + [base[0], base[1], base[0]]  # duplicates interleaved
        serial = SerialBackend().run(points)
        distributed = Coordinator(workers).run(points)
        assert _payloads(distributed) == _payloads(serial)

    def test_single_worker_cluster(self, workers):
        points = _points(4)
        serial = SerialBackend().run(points)
        distributed = Coordinator(workers[:1]).run(points)
        assert _payloads(distributed) == _payloads(serial)

    def test_empty_sweep(self, workers):
        assert Coordinator(workers).run([]) == []


class TestPublicSurface:
    def test_run_sweep_with_distributed_backend_name(self, workers):
        points = _points(5)
        serial = run_sweep(points)
        distributed = run_sweep(points, backend="distributed", workers=workers)
        assert _payloads(distributed) == _payloads(serial)

    def test_backend_instance_records_stats(self, workers):
        backend = DistributedBackend(workers)
        backend.run(_points(6))
        stats = backend.last_stats
        assert stats is not None
        assert stats["workers"] == 2
        assert stats["points"] == stats["distinct_points"] == 6
        assert stats["dispatched"] >= 6

    def test_workers_env_fallback(self, workers, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, ",".join(workers))
        assert workers_from_env() == workers
        points = _points(3)
        assert _payloads(run_sweep(points, backend="distributed")) == _payloads(
            SerialBackend().run(points)
        )

    def test_cache_serves_distributed_results(self, workers, tmp_path):
        points = _points(3)
        cache = ResultCache(tmp_path)
        first = run_sweep(points, backend="distributed", workers=workers, cache=cache)
        # Second run must not need the workers at all: all cache hits.
        second = run_sweep(
            points, backend="distributed", workers=["127.0.0.1:1"], cache=cache
        )
        assert _payloads(second) == _payloads(first)
        assert all(result.cached for result in second)

    def test_get_backend_validation(self, workers, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        with pytest.raises(ValueError, match="worker addresses"):
            get_backend("distributed")
        with pytest.raises(ValueError, match="only meaningful"):
            get_backend("serial", workers=workers)
        with pytest.raises(ValueError, match="instance"):
            get_backend(SerialBackend(), workers=workers)
        with pytest.raises(ValueError, match="only meaningful"):
            get_backend("distributed", jobs=2)

    def test_malformed_addresses_fail_fast(self):
        with pytest.raises(ValueError):
            Coordinator(["nonsense"])
        with pytest.raises(ValueError):
            Coordinator([])
        assert _parse_address("http://h:8080") == ("h", 8080)
        assert _parse_address("h:8080") == ("h", 8080)


class TestFailureHandling:
    def test_remote_exception_propagates(self, workers):
        bad = SweepPoint("coord", failing_point_fn, {"n": 3}, seed=0, trials=1)
        with pytest.raises(RemoteExecutionError, match=r"boom\(3\)"):
            Coordinator(workers).run([bad])

    def test_dead_worker_requeues_onto_survivor(self, workers):
        # One real worker plus one address nobody listens on: registration
        # drops the dead one and the whole sweep lands on the survivor.
        points = _points(5)
        coordinator = Coordinator([workers[0], "127.0.0.1:1"])
        results = coordinator.run(points)
        assert _payloads(results) == _payloads(SerialBackend().run(points))
        assert coordinator.stats.workers == 1

    def test_worker_dying_mid_sweep_is_survivable(self, workers):
        # Kill one worker after it received its shard but while points are
        # still outstanding on it: the coordinator must declare it dead,
        # requeue the orphans onto the survivor, and still return results
        # byte-identical to serial.
        class KillOnceCoordinator(Coordinator):
            def __init__(self, *args, handle, **kwargs):
                super().__init__(*args, **kwargs)
                self.handle = handle
                self.killed = False

            def _replicate_stragglers(self, *args, **kwargs):
                if not self.killed:  # first post-poll hook: sever the worker
                    self.killed = True
                    self.handle.stop()
                    return
                super()._replicate_stragglers(*args, **kwargs)

        points = [
            SweepPoint("coord", slow_point_fn, {"delay": 0.05}, seed=(13, i), trials=1)
            for i in range(6)
        ]
        with start_in_background(WORKER, worker=True) as doomed:
            coordinator = KillOnceCoordinator(
                [workers[0], f"127.0.0.1:{doomed.port}"],
                handle=doomed,
                max_failures=1,
                timeout=5.0,
                poll_interval=0.001,
            )
            results = coordinator.run(points)
        assert _payloads(results) == _payloads(SerialBackend().run(points))
        assert coordinator.stats.workers_lost == [f"127.0.0.1:{doomed.port}"]
        assert coordinator.stats.requeued > 0

    def test_all_workers_dead_raises(self):
        with pytest.raises(DistributedError, match="/register"):
            Coordinator(["127.0.0.1:1", "127.0.0.1:2"], timeout=2.0).run(_points(2))


class TestReplication:
    def test_straggler_replication_keeps_identity(self, workers):
        points = _points(9)
        coordinator = Coordinator(workers, replicate=2, poll_interval=0.001)
        results = coordinator.run(points)
        assert _payloads(results) == _payloads(SerialBackend().run(points))
        # Dispatched work (initial shards + replicas) never exceeds
        # ``replicate`` live copies per distinct point.
        stats = coordinator.stats
        assert stats.dispatched <= 2 * stats.distinct_points
        assert stats.replicated <= stats.distinct_points
