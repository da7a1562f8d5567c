"""Multiprocessing backend: fan independent sweep points out across workers.

Sweep points are embarrassingly parallel — each carries its own seed and
builds its own workload — so the only requirements for process-based
execution are (i) picklable points (module-level ``fn``, plain-data
``kwargs``) and (ii) per-point determinism, both guaranteed by the
:class:`~repro.backends.base.SweepPoint` contract.  Workers receive whole
points and run the shared :func:`~repro.backends.base.execute_point`
routine, so results are byte-identical to :class:`SerialBackend` regardless
of worker count or scheduling order.

The ``fork`` start method is preferred where available (Linux): workers
inherit the already-imported interpreter, which keeps per-sweep overhead to
a few milliseconds.  On platforms without ``fork`` the backend falls back
to ``spawn``, which additionally requires ``repro`` to be importable in
fresh interpreters (installed, or on ``PYTHONPATH``).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from typing import Sequence

from .base import Backend, PointResult, SweepPoint, execute_point

__all__ = ["MultiprocessingBackend"]


def _default_jobs() -> int:
    return os.cpu_count() or 1


class MultiprocessingBackend(Backend):
    """Evaluate points concurrently in ``jobs`` worker processes.

    Parameters
    ----------
    jobs:
        Number of worker processes; defaults to ``os.cpu_count()``.
    """

    name = "mp"

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be a positive integer")
        self.jobs = jobs or _default_jobs()

    def run(self, points: Sequence[SweepPoint]) -> list[PointResult]:
        points = list(points)
        if not points:
            return []
        jobs = min(self.jobs, len(points))
        if jobs <= 1:
            # One worker buys nothing over in-process execution; skip the
            # process machinery (and its pickling constraints) entirely.
            return [execute_point(point) for point in points]
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=context
        ) as pool:
            # Executor.map preserves input order, so result i belongs to
            # point i no matter which worker finished first.
            return list(pool.map(execute_point, points))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiprocessingBackend(jobs={self.jobs})"
