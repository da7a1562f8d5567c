"""Micro-batching: coalesce concurrent solve requests into one sweep.

Concurrent requests land on an asyncio queue; a single dispatcher task
drains it into batches — a batch closes when it reaches the batch-size
limit or the wait window after its first point arrived — and executes
each batch through :func:`~repro.backends.run_sweep` in a worker thread.
The whole frontier therefore reaches the backend in one call, exactly like
an experiment sweep: the ``batch`` backend memoises duplicate points
(identical concurrent requests compute once) and ``mp`` fans distinct
points out across processes.

The service answers result-cache hits at admission, before they reach
this queue, so only misses are submitted here and only they count in the
batch sizes and feed the adaptive policy.  ``run_sweep`` still consults
the shared :class:`~repro.backends.ResultCache`: a duplicate whose twin
finished while it waited replays from the cache instead of recomputing.

Because every backend is required to produce results identical to
``execute_point``, batching changes *where and when* a request computes,
never *what* it answers — the byte-identity guarantee of
:func:`repro.service.api.solve_direct` survives batching untouched.

Production hardening (see ``docs/SERVICE.md``):

* **Adaptive sizing** — pass an :class:`~repro.service.adaptive.
  AdaptiveBatchPolicy` and the batch size / wait window become feedback-
  controlled: the window shrinks when request p99 drifts above target and
  batches grow under saturation.  Without a policy the configured
  ``max_batch`` / ``batch_wait_ms`` are fixed.
* **Fault isolation** — when a batch's sweep raises, the batch is retried
  point-by-point so one poisoned request fails alone instead of failing
  every stranger sharing its batch.
* **Shutdown** — a point counts in :meth:`MicroBatcher.queue_depth` from
  submission until its result is delivered, also while its batch is still
  being collected; :meth:`MicroBatcher.aclose` fails every undelivered
  point with ``RuntimeError("service shut down")``.
* **Callback isolation** — an ``on_batch`` observer that raises is
  swallowed; instrumentation must never kill the dispatch loop.
* **Deterministic testing** — the ``clock`` hook replaces the loop clock
  in every wait-window computation, so tests drive the window with a fake
  clock instead of real sleeps.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Callable, Sequence

from ..backends import PointResult, ResultCache, SweepPoint, run_sweep
from .adaptive import AdaptiveBatchPolicy

if TYPE_CHECKING:
    from .server import ServiceConfig

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Coalesce submitted points into batches executed via ``run_sweep``.

    ``config`` supplies the backend, jobs, batch size and wait window; a
    ``policy``, when given, steers the size (capped at ``max_batch``) and
    the window instead.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        cache: ResultCache | None = None,
        on_batch: Callable[[int], None] | None = None,
        policy: AdaptiveBatchPolicy | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.backend = config.backend
        self.jobs = config.jobs
        self.cache = cache
        self.max_batch = config.max_batch
        self.max_wait = config.batch_wait_ms / 1000.0
        self.on_batch = on_batch
        self.policy = policy
        self._clock = clock
        self._queue: asyncio.Queue[tuple[SweepPoint, asyncio.Future[PointResult], float]] = (
            asyncio.Queue()
        )
        self._dispatcher: asyncio.Task[None] | None = None
        #: The batch being collected or executed: its points have left the
        #: queue but still count in :meth:`queue_depth`.
        self._batch: list[tuple[SweepPoint, asyncio.Future[PointResult], float]] = []
        self._closing = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_event_loop().time()

    def queue_depth(self) -> int:
        """Points queued, in the batch being collected, or executing."""
        return self._queue.qsize() + len(self._batch)

    def limits(self) -> tuple[int, float]:
        """The (batch size, wait seconds) the next batch will be collected with."""
        if self.policy is not None:
            return (
                max(1, min(self.policy.batch_size, self.max_batch)),
                self.policy.wait_seconds,
            )
        return self.max_batch, self.max_wait

    def stats(self) -> dict[str, object]:
        """JSON-ready batcher state for ``/metrics``."""
        size, wait = self.limits()
        payload: dict[str, object] = {
            "queue_depth": self.queue_depth(),
            "batch_size_limit": size,
            "wait_seconds": wait,
            "adaptive": self.policy is not None,
        }
        if self.policy is not None:
            payload["policy"] = self.policy.snapshot()
        return payload

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the dispatcher task on the running event loop."""
        if self._dispatcher is None or self._dispatcher.done():
            self._closing = False
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name="repro-service-batcher"
            )

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait until no request is queued or executing.

        The graceful-shutdown half of :meth:`aclose`: where ``aclose``
        cancels and fails undelivered submissions, ``drain`` lets them
        finish.  Returns ``False`` if ``timeout`` elapsed first.
        """
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while self.queue_depth() > 0:
            if deadline is not None and loop.time() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    async def aclose(self) -> None:
        """Cancel the dispatcher and fail any undelivered submissions."""
        self._closing = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        while not self._queue.empty():
            _, future, _ = self._queue.get_nowait()
            if not future.done():
                future.set_exception(RuntimeError("service shut down"))

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    async def submit(self, point: SweepPoint) -> PointResult:
        """Queue one point and await its result."""
        if self._closing:
            raise RuntimeError("service shut down")
        self.start()
        future: asyncio.Future[PointResult] = asyncio.get_running_loop().create_future()
        await self._queue.put((point, future, self._now()))
        return await future

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    async def _collect_batch(self) -> None:
        """Block for the first point, then drain until size or time is up.

        Each point moves straight from the queue into ``self._batch``, so
        it stays visible to :meth:`drain` and is failed by :meth:`aclose`
        while the wait window is still open.
        """
        batch = self._batch
        batch.append(await self._queue.get())
        size_limit, wait = self.limits()
        deadline = self._now() + wait
        while len(batch) < size_limit:
            remaining = deadline - self._now()
            if remaining <= 0:
                # Past the deadline: take only what is already queued.
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            else:
                try:
                    batch.append(await asyncio.wait_for(self._queue.get(), remaining))
                except asyncio.TimeoutError:
                    break

    def _execute(self, points: Sequence[SweepPoint]) -> list[PointResult | BaseException]:
        """Run one batch; on failure, isolate it to the offending point(s).

        A request must never fail because a *stranger* sharing its batch
        raised: when the whole-batch sweep raises, each point re-runs in
        its own single-point sweep and only the points that still raise
        carry an exception back to their callers.
        """
        try:
            return list(
                run_sweep(points, backend=self.backend, jobs=self.jobs, cache=self.cache)
            )
        except BaseException:  # noqa: BLE001 - isolated per point below
            results: list[PointResult | BaseException] = []
            for point in points:
                try:
                    [result] = run_sweep(
                        [point], backend=self.backend, jobs=self.jobs, cache=self.cache
                    )
                    results.append(result)
                except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                    results.append(exc)
            return results

    async def _dispatch_loop(self) -> None:
        try:
            while True:
                await self._collect_batch()
                await self._run_batch(self._batch)
                self._batch = []
        except asyncio.CancelledError:
            for _, future, _ in self._batch:
                if not future.done():
                    future.set_exception(RuntimeError("service shut down"))
            self._batch = []
            raise

    async def _run_batch(
        self, batch: list[tuple[SweepPoint, asyncio.Future[PointResult], float]]
    ) -> None:
        """Execute one collected batch and deliver each point's outcome."""
        if self.on_batch is not None:
            try:
                self.on_batch(len(batch))
            except Exception:  # noqa: BLE001 - observers must not kill dispatch
                pass
        points = [point for point, _, _ in batch]
        try:
            results = await asyncio.get_running_loop().run_in_executor(
                None, self._execute, points
            )
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded to callers
            results = [exc] * len(batch)
        finished = self._now()
        depth = self._queue.qsize()
        for (_, future, enqueued), result in zip(batch, results):
            if self.policy is not None:
                self.policy.observe(max(0.0, finished - enqueued), depth)
            if future.done():
                continue
            if isinstance(result, BaseException):
                future.set_exception(result)
            else:
                future.set_result(result)
