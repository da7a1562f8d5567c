"""Edge-case tests for the micro-batcher and the adaptive batch policy.

These run the batcher directly on an event loop — no sockets — so every
scenario is deterministic: degenerate limits (``max_batch=1``), shutdown
with in-flight work, duplicate-point memoisation across batch boundaries,
observer callbacks that raise, and the pure-function feedback rules of
:class:`AdaptiveBatchPolicy` driven by synthetic latency streams.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.backends import ResultCache, SweepPoint
from repro.registry import get_algorithm
from repro.service.adaptive import AdaptiveBatchPolicy
from repro.service import ServiceConfig
from repro.service.batcher import MicroBatcher


def _point(seed: int = 0, n: int = 30) -> SweepPoint:
    return get_algorithm("mis").build_point(params={"n": n, "c": 0.35}, seed=seed)


def _poison_point() -> SweepPoint:
    """Parses fine, raises at solve time (negative vertex count)."""
    return get_algorithm("mis").build_point(params={"n": -1}, seed=0)


def _run(coro):
    return asyncio.run(coro)


class TestBatcherEdges:
    def test_max_batch_one_executes_each_point_alone(self):
        sizes: list[int] = []

        async def scenario():
            batcher = MicroBatcher(
                ServiceConfig(backend="serial", max_batch=1, batch_wait_ms=0.0),
                on_batch=sizes.append,
            )
            try:
                results = await asyncio.gather(
                    *(batcher.submit(_point(seed)) for seed in range(4))
                )
            finally:
                await batcher.aclose()
            return results

        results = _run(scenario())
        assert len(results) == 4
        assert all(result.records for result in results)
        assert sizes and all(size == 1 for size in sizes)

    def test_invalid_limits_rejected(self):
        # The batcher's limits come from a ServiceConfig, which checks them.
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(batch_wait_ms=-1.0)

    def test_shutdown_fails_queued_requests_without_hanging(self):
        async def scenario():
            picked_up = threading.Event()

            batcher = MicroBatcher(
                ServiceConfig(backend="serial", max_batch=1, batch_wait_ms=0.0),
                on_batch=lambda _size: picked_up.set(),
            )
            # A slow-ish solve keeps the dispatcher inside its executor
            # call while the second submission is still queued.
            first = asyncio.ensure_future(batcher.submit(_point(0, n=150)))
            while not picked_up.is_set():
                await asyncio.sleep(0.005)
            second = asyncio.ensure_future(batcher.submit(_point(1)))
            await asyncio.sleep(0.02)  # second point sits in the queue
            await asyncio.wait_for(batcher.aclose(), timeout=60)
            outcomes = await asyncio.gather(first, second, return_exceptions=True)
            # Submissions after close are refused outright.
            with pytest.raises(RuntimeError, match="shut down"):
                await batcher.submit(_point(2))
            return outcomes

        first, second = _run(scenario())
        # Both outcomes are races against the executor, so either "failed
        # cleanly at shutdown" or "squeaked through before it" is
        # acceptable — what is not acceptable is a hang (the wait_for
        # above) or a silently dropped future (asserted here).
        for outcome in (first, second):
            if isinstance(outcome, BaseException):
                assert isinstance(outcome, RuntimeError)
            else:
                assert outcome.records

    def test_close_drains_queue_and_fails_waiters(self):
        """Anything still queued at aclose() is failed, never dropped."""

        async def scenario():
            batcher = MicroBatcher(ServiceConfig(backend="serial", max_batch=4))
            loop = asyncio.get_running_loop()
            stranded = loop.create_future()
            # Enqueue without starting the dispatcher: the point can only
            # be resolved by the aclose() drain path.
            batcher._queue.put_nowait((_point(0), stranded, 0.0))
            await batcher.aclose()
            return stranded

        stranded = _run(scenario())
        with pytest.raises(RuntimeError, match="shut down"):
            stranded.result()

    def test_batch_being_collected_is_in_flight_until_shutdown(self):
        """A point held in an open wait window counts, and aclose() fails it."""

        async def scenario():
            batcher = MicroBatcher(
                ServiceConfig(backend="serial", max_batch=8, batch_wait_ms=5_000.0)
            )
            pending = asyncio.ensure_future(batcher.submit(_point(0)))
            # Wait until the dispatcher has taken the point off the queue;
            # the 5 s window keeps it in the batch being collected.
            while batcher._dispatcher is None or not batcher._queue.empty():
                await asyncio.sleep(0.005)
            depth = batcher.queue_depth()
            drained = await batcher.drain(timeout=0.5)
            await asyncio.wait_for(batcher.aclose(), timeout=30)
            [outcome] = await asyncio.wait_for(
                asyncio.gather(pending, return_exceptions=True), timeout=1.0
            )
            return depth, drained, outcome

        depth, drained, outcome = _run(scenario())
        assert depth == 1
        assert drained is False
        assert isinstance(outcome, RuntimeError)
        assert "shut down" in str(outcome)

    def test_duplicate_points_memoise_across_batch_boundary(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")

        async def scenario():
            batcher = MicroBatcher(
                ServiceConfig(max_batch=4, batch_wait_ms=1.0), cache=cache
            )
            try:
                first = await batcher.submit(_point(7))
                # Same point again — a *later* batch must hit the shared
                # result cache instead of recomputing.
                second = await batcher.submit(_point(7))
            finally:
                await batcher.aclose()
            return first, second

        first, second = _run(scenario())
        assert not first.cached
        assert second.cached
        assert second.records == first.records

    def test_on_batch_exception_does_not_kill_dispatch(self):
        calls: list[int] = []

        def bad_observer(size: int) -> None:
            calls.append(size)
            raise RuntimeError("observer bug")

        async def scenario():
            batcher = MicroBatcher(
                ServiceConfig(backend="serial", max_batch=2, batch_wait_ms=1.0),
                on_batch=bad_observer,
            )
            try:
                first = await batcher.submit(_point(1))
                second = await batcher.submit(_point(2))
            finally:
                await batcher.aclose()
            return first, second

        first, second = _run(scenario())
        assert first.records and second.records
        assert len(calls) >= 2  # the observer kept being invoked

    def test_poisoned_point_fails_alone(self):
        async def scenario():
            batcher = MicroBatcher(ServiceConfig(max_batch=4, batch_wait_ms=50.0))
            try:
                outcomes = await asyncio.gather(
                    batcher.submit(_point(0)),
                    batcher.submit(_poison_point()),
                    batcher.submit(_point(1)),
                    return_exceptions=True,
                )
            finally:
                await batcher.aclose()
            return outcomes

        good_a, poisoned, good_b = _run(scenario())
        assert good_a.records
        assert good_b.records
        assert isinstance(poisoned, ValueError)

    def test_fake_clock_drives_wait_window(self):
        """With an injected clock the wait window needs no real sleeping."""
        clock = {"now": 100.0}

        async def scenario():
            batcher = MicroBatcher(
                # A 10 s window is absurd for real time; free on a fake clock.
                ServiceConfig(backend="serial", max_batch=8, batch_wait_ms=10_000.0),
                clock=lambda: clock["now"],
            )
            first = asyncio.ensure_future(batcher.submit(_point(0)))
            await asyncio.sleep(0.02)
            # Jump the clock past the whole window: when the next arrival
            # wakes the collector, its deadline check sees remaining <= 0
            # and closes the batch at once — no real 10-second sleep.
            clock["now"] += 20.0
            second = asyncio.ensure_future(batcher.submit(_point(1)))
            results = await asyncio.wait_for(
                asyncio.gather(first, second), timeout=30
            )
            await batcher.aclose()
            return results

        first, second = _run(scenario())
        assert first.records and second.records

    def test_stats_shape(self):
        async def scenario():
            policy = AdaptiveBatchPolicy(max_batch=16, initial_batch=4)
            batcher = MicroBatcher(
                ServiceConfig(backend="serial", max_batch=16), policy=policy
            )
            try:
                await batcher.submit(_point(0))
            finally:
                await batcher.aclose()
            return batcher.stats()

        stats = _run(scenario())
        assert stats["adaptive"] is True
        assert stats["queue_depth"] == 0
        assert stats["batch_size_limit"] <= 16
        assert set(stats["policy"]) == {
            "target_p99", "batch_size", "wait_seconds", "adjustments",
        }


class TestAdaptivePolicy:
    def test_shrinks_wait_when_p99_over_target(self):
        policy = AdaptiveBatchPolicy(
            target_p99=0.1, window=8, max_wait=0.05, initial_wait=0.05
        )
        for _ in range(8):
            policy.observe(0.15, queue_depth=0)  # over target, not 2x
        assert policy.adjustments == 1
        assert policy.wait_seconds == pytest.approx(0.025)
        assert policy.batch_size == policy.max_batch  # not badly over: size kept

    def test_halves_batch_when_p99_badly_over(self):
        policy = AdaptiveBatchPolicy(
            target_p99=0.1, window=4, max_batch=64, initial_batch=64
        )
        for _ in range(4):
            policy.observe(0.5, queue_depth=0)  # 5x the target
        assert policy.batch_size == 32
        for _ in range(4):
            policy.observe(0.5, queue_depth=0)
        assert policy.batch_size == 16

    def test_grows_under_saturation_when_healthy(self):
        policy = AdaptiveBatchPolicy(
            target_p99=1.0, window=4, max_batch=64, initial_batch=8,
            max_wait=0.05, initial_wait=0.01,
        )
        for _ in range(4):
            policy.observe(0.01, queue_depth=50)  # deep queue, tiny latency
        assert policy.batch_size == 12  # 8 * grow(1.5)
        assert policy.wait_seconds > 0.01

    def test_bounds_are_never_escaped(self):
        policy = AdaptiveBatchPolicy(
            target_p99=0.01, window=2, min_batch=2, max_batch=8,
            initial_batch=8, min_wait=0.001, max_wait=0.02, initial_wait=0.02,
        )
        for _ in range(100):
            policy.observe(10.0, queue_depth=0)  # catastrophic latency
        assert policy.batch_size == policy.min_batch
        assert policy.wait_seconds == pytest.approx(policy.min_wait)
        for _ in range(100):
            policy.observe(0.0001, queue_depth=1_000)  # deep healthy queue
        assert policy.batch_size == policy.max_batch
        assert policy.wait_seconds <= policy.max_wait

    def test_idle_drift_recovers_wait_window(self):
        policy = AdaptiveBatchPolicy(
            target_p99=0.1, window=2, max_wait=0.05, initial_wait=0.05
        )
        for _ in range(2):
            policy.observe(0.2, queue_depth=0)  # shrink once
        shrunk = policy.wait_seconds
        for _ in range(20):
            policy.observe(0.01, queue_depth=0)  # healthy, shallow queue
        assert policy.wait_seconds > shrunk  # drifts back toward max_wait

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(target_p99=0.0)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(min_batch=0)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(min_wait=-1.0)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(window=0)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(shrink=1.5)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(grow=0.9)

    def test_snapshot_is_json_ready(self):
        policy = AdaptiveBatchPolicy()
        snap = policy.snapshot()
        assert set(snap) == {"target_p99", "batch_size", "wait_seconds", "adjustments"}
        assert all(isinstance(value, (int, float)) for value in snap.values())
