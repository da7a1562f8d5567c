"""WorkerState unit tests: the exactly-once queue behind ``repro worker``.

These tests drive the worker-side state machine directly (no HTTP), so
the idempotency and ack semantics are pinned down at the layer where they
are implemented: duplicate pulls drop, results persist until acked, a new
sweep id wipes the slate, and finished points feed the result-word counter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.base import SweepPoint, execute_point
from repro.distributed.protocol import (
    WorkerProtocolError,
    encode_point,
    encode_records,
    payload_words,
    point_key,
)
from repro.distributed.worker import WorkerState
from repro.experiments.harness import ExperimentRecord


def worker_point_fn(rng: np.random.Generator, *, scale: float = 1.0) -> ExperimentRecord:
    return ExperimentRecord("wkr", metrics={"value": scale * float(rng.random())})


def _point(seed: int, scale: float = 1.0) -> SweepPoint:
    return SweepPoint("wkr", worker_point_fn, {"scale": scale}, seed=seed, trials=2)


@pytest.fixture()
def worker():
    state = WorkerState(backend="serial", jobs=None, cache=None)
    state.start()
    yield state
    state.close()


class TestRegister:
    def test_new_sweep_id_clears_state(self, worker):
        worker.register("sweep-a")
        worker.pull("sweep-a", [encode_point(_point(1))])
        assert worker.drain(timeout=30)
        assert worker.collect("sweep-a")["completed"]
        worker.register("sweep-b")
        response = worker.collect("sweep-b")
        assert response["completed"] == []
        assert worker.stats()["sweeps_registered"] == 2

    def test_reregistering_same_sweep_keeps_results(self, worker):
        worker.register("sweep-a")
        worker.pull("sweep-a", [encode_point(_point(2))])
        assert worker.drain(timeout=30)
        worker.register("sweep-a")  # e.g. a coordinator retry
        assert len(worker.collect("sweep-a")["completed"]) == 1

    def test_register_rejects_bad_sweep_ids(self, worker):
        with pytest.raises(WorkerProtocolError):
            worker.register("")

    def test_operations_require_registration(self, worker):
        with pytest.raises(WorkerProtocolError):
            worker.pull("never-registered", [encode_point(_point(3))])
        with pytest.raises(WorkerProtocolError):
            worker.collect("never-registered")


class TestPullDeduplication:
    def test_duplicate_pulls_are_dropped(self, worker):
        worker.register("s")
        payload = encode_point(_point(4))
        first = worker.pull("s", [payload])
        second = worker.pull("s", [payload, payload])
        assert first["accepted"] == [point_key(_point(4))]
        assert first["duplicates"] == []
        assert second["accepted"] == []
        assert len(second["duplicates"]) == 2
        assert worker.drain(timeout=30)
        # The point ran exactly once despite three submissions.
        assert len(worker.collect("s")["completed"]) == 1
        assert worker.stats()["points_executed"] == 1
        assert worker.stats()["duplicates_dropped"] == 2

    def test_completed_digest_is_still_a_duplicate(self, worker):
        worker.register("s")
        payload = encode_point(_point(5))
        worker.pull("s", [payload])
        assert worker.drain(timeout=30)
        response = worker.pull("s", [payload])
        assert response["accepted"] == []
        assert response["duplicates"] == [point_key(_point(5))]


class TestCollectAckProtocol:
    def test_results_persist_until_acked(self, worker):
        worker.register("s")
        digest = point_key(_point(6))
        worker.pull("s", [encode_point(_point(6))])
        assert worker.drain(timeout=30)
        first = worker.collect("s")
        second = worker.collect("s")  # lost response: re-served, not lost
        assert [e["digest"] for e in first["completed"]] == [digest]
        assert [e["digest"] for e in second["completed"]] == [digest]
        third = worker.collect("s", acked=[digest])
        assert third["completed"] == []

    def test_results_are_byte_identical_to_serial(self, worker):
        worker.register("s")
        points = [_point(seed, scale=1.5) for seed in range(4)]
        worker.pull("s", [encode_point(p) for p in points])
        assert worker.drain(timeout=30)
        completed = {
            e["digest"]: e for e in worker.collect("s")["completed"]
        }
        for point in points:
            entry = completed[point_key(point)]
            golden = execute_point(point)
            assert entry["signature"] == golden.signature
            assert entry["records"] == encode_records(golden.records)

    def test_failing_point_ships_the_error(self, worker):
        worker.register("s")
        bad = SweepPoint(
            "wkr", worker_point_fn, {"scale": "not-a-number"}, seed=0, trials=1
        )
        # encode_point would verify transportability; build the payload by
        # hand the way a buggy coordinator might.
        payload = {
            "experiment": "wkr",
            "fn": f"{__name__}.worker_point_fn",
            "kwargs": {"scale": "not-a-number"},
            "seed": 0,
            "trials": 1,
        }
        worker.pull("s", [payload])
        assert worker.drain(timeout=30)
        [entry] = worker.collect("s")["completed"]
        assert "error" in entry and "TypeError" in entry["error"]
        assert worker.stats()["points_failed"] == 1
        del bad


class TestAccounting:
    def test_points_feed_result_words(self, worker):
        worker.register("s")
        worker.pull("s", [encode_point(_point(3))])
        assert worker.drain(timeout=30)
        [entry] = worker.collect("s")["completed"]
        stats = worker.stats()
        assert stats["points_executed"] == 1
        assert stats["result_words_total"] == payload_words(entry["records"]) > 0
