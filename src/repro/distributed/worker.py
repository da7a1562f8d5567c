"""Worker-side state machine behind ``/register``, ``/pull``, ``/result``.

A :class:`WorkerState` is owned by a :class:`~repro.service.server.
SolverService` started in worker mode (``repro worker``).  It is a small
task queue with exactly-once semantics keyed by the point content digest:

* a pulled point whose digest was already queued, is executing, or has a
  stored result is **dropped** (counted as a duplicate) — this is what
  makes coordinator retries and straggler replication safe;
* completed results are held until the coordinator *acknowledges* them in
  a later ``/result`` call, so a lost response is re-served, never lost;
* registering a **new sweep id** clears all state — a crashed coordinator
  cannot poison the next sweep's queue.

Execution happens on one background thread, one point at a time, through
:func:`~repro.backends.run_sweep` — so a worker-local ``--cache-dir``
replays repeats, and the results a worker hands back are (by the backend
contract) identical to what serial execution would have produced.  The
worker is the unit of parallelism: run more workers, not more threads.
"""

from __future__ import annotations

import os
import socket
import threading
from collections import deque
from typing import Any, Sequence

from ..backends import ResultCache, run_sweep
from ..backends.base import SweepPoint
from .protocol import (
    WorkerProtocolError,
    decode_point,
    encode_records,
    payload_words,
    point_key,
)

__all__ = ["WorkerState"]


class WorkerState:
    """Queue, executor thread, and counters for one worker process."""

    def __init__(
        self, *, backend: str, jobs: int | None, cache: ResultCache | None
    ) -> None:
        self.backend = backend
        self.jobs = jobs
        self.cache = cache
        self.worker_id = f"{socket.gethostname()}:{os.getpid()}"
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._sweep: str | None = None
        self._queue: deque[str] = deque()
        self._points: dict[str, SweepPoint] = {}
        self._completed: dict[str, dict[str, Any]] = {}
        self._running: str | None = None
        # The current executor; an executor that is no longer ``_thread``
        # has been told to stop (close() clears it, a restart replaces it).
        self._thread: threading.Thread | None = None
        # Counters (all under the lock).
        self.points_executed = 0
        self.points_failed = 0
        self.duplicates_dropped = 0
        self.pulls_total = 0
        self.results_served = 0
        self.sweeps_registered = 0
        self.result_words_total = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        # The whole check-spawn-start must hold the lock: start() runs on the
        # event loop while close() runs on an executor thread.  Publishing
        # the thread before starting it would let close() join a thread that
        # was never started; the new thread blocks on the lock in ``_run``
        # until start() returns.
        with self._work:
            if self._thread is not None and self._thread.is_alive():
                return
            thread = threading.Thread(
                target=self._run, name="repro-worker-executor", daemon=True
            )
            self._thread = thread
            thread.start()

    def close(self) -> None:
        with self._work:
            self._work.notify_all()
            thread = self._thread
            self._thread = None
        # Join outside the lock — ``_run`` needs it to observe that it is no
        # longer ``_thread`` and exit; joining while holding it would
        # deadlock until timeout.
        if thread is not None:
            thread.join(timeout=30)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty and nothing is executing."""
        with self._work:
            return self._work.wait_for(
                lambda: not self._queue and self._running is None, timeout
            )

    # ------------------------------------------------------------------ #
    # Endpoint operations (called from the service's request path)
    # ------------------------------------------------------------------ #
    def register(self, sweep: str) -> dict[str, Any]:
        """Open a sweep session; a *new* sweep id clears all queue state."""
        if not isinstance(sweep, str) or not sweep:
            raise WorkerProtocolError("'sweep' must be a non-empty string")
        with self._work:
            if sweep != self._sweep:
                self._sweep = sweep
                self._queue.clear()
                self._points.clear()
                self._completed.clear()
                self.sweeps_registered += 1
            return {
                "worker_id": self.worker_id,
                "sweep": sweep,
                "backend": str(self.backend),
                "points_executed": self.points_executed,
            }

    def _check_sweep(self, sweep: Any) -> None:
        if sweep != self._sweep:
            raise WorkerProtocolError(
                f"sweep {sweep!r} is not registered on this worker "
                f"(current: {self._sweep!r}); POST /register first"
            )

    def pull(self, sweep: str, encoded_points: Sequence[dict[str, Any]]) -> dict[str, Any]:
        """Enqueue a shard of encoded points; duplicates are dropped."""
        decoded: list[tuple[str, SweepPoint]] = []
        for payload in encoded_points:
            point = decode_point(payload)
            decoded.append((point_key(point), point))
        accepted: list[str] = []
        duplicates: list[str] = []
        with self._work:
            self._check_sweep(sweep)
            for digest, point in decoded:
                if (
                    digest in self._points
                    or digest in self._completed
                    or digest == self._running
                ):
                    duplicates.append(digest)
                    continue
                self._points[digest] = point
                self._queue.append(digest)
                accepted.append(digest)
            self.pulls_total += 1
            self.duplicates_dropped += len(duplicates)
            self._work.notify_all()
        return {"accepted": accepted, "duplicates": duplicates}

    def collect(self, sweep: str, acked: Sequence[str] = ()) -> dict[str, Any]:
        """Return completed results; drop the ones the coordinator acked."""
        with self._work:
            self._check_sweep(sweep)
            for digest in acked:
                self._completed.pop(str(digest), None)
            completed = [dict(entry) for entry in self._completed.values()]
            self.results_served += len(completed)
            return {
                "completed": completed,
                "pending": len(self._queue) + (1 if self._running else 0),
                "running": self._running,
            }

    def stats(self) -> dict[str, Any]:
        """JSON-ready worker counters for the ``distributed`` /metrics key."""
        with self._lock:
            return {
                "worker_id": self.worker_id,
                "sweep": self._sweep,
                "queued": len(self._queue),
                "running": self._running,
                "unacked_results": len(self._completed),
                "points_executed": self.points_executed,
                "points_failed": self.points_failed,
                "duplicates_dropped": self.duplicates_dropped,
                "pulls_total": self.pulls_total,
                "results_served": self.results_served,
                "sweeps_registered": self.sweeps_registered,
                "result_words_total": self.result_words_total,
            }

    # ------------------------------------------------------------------ #
    # Executor thread
    # ------------------------------------------------------------------ #
    def _execute(self, point: SweepPoint) -> dict[str, Any]:
        digest = point_key(point)
        try:
            [result] = run_sweep(
                [point], backend=self.backend, jobs=self.jobs, cache=self.cache
            )
            records = encode_records(result.records)
        except BaseException as exc:  # noqa: BLE001 - shipped to the coordinator
            return {"digest": digest, "error": f"{type(exc).__name__}: {exc}"}
        return {
            "digest": digest,
            "experiment": point.experiment,
            "signature": result.signature,
            "records": records,
        }

    def _account(self, entry: dict[str, Any]) -> None:
        """Update counters for one finished point (lock held)."""
        if "error" in entry:
            self.points_failed += 1
            return
        self.points_executed += 1
        self.result_words_total += payload_words(entry["records"])

    def _run(self) -> None:
        me = threading.current_thread()
        while True:
            with self._work:
                self._work.wait_for(lambda: self._queue or self._thread is not me)
                if self._thread is not me:
                    return
                digest = self._queue.popleft()
                point = self._points[digest]
                sweep = self._sweep
                self._running = digest
            entry = self._execute(point)
            with self._work:
                self._points.pop(digest, None)
                self._running = None
                # A re-registration may have swapped the sweep mid-point;
                # only publish results that still belong to the sweep the
                # point was pulled under.
                if self._sweep == sweep and digest not in self._completed:
                    self._completed[digest] = entry
                self._account(entry)
                self._work.notify_all()
