"""``run_sweep`` — the single entry point every experiment sweep goes through.

All sweep drivers (the Figure-1 rows and the ablation and scaling grids
over them, the solve facade, the service) build a list of
:class:`~repro.backends.base.SweepPoint` and hand it to :func:`run_sweep`,
which:

1. resolves the backend (an instance, a registry name like ``"mp"``, or
   the default :class:`~repro.backends.serial.SerialBackend`);
2. serves every point already present in the optional
   :class:`~repro.backends.cache.ResultCache` without recomputing it;
3. dispatches the remaining points to the backend in one call (so a
   parallel backend sees the whole frontier at once);
4. stores fresh results back into the cache and returns one
   :class:`~repro.backends.base.PointResult` per input point, in order.

This is the seam future execution strategies (async, sharded, distributed)
plug into: implement :class:`~repro.backends.base.Backend`, register it
here, and every sweep in the repository can use it.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from .base import Backend, PointResult, SweepPoint
from .batch import BatchBackend
from .cache import ResultCache
from .distributed import DistributedBackend
from .parallel import MultiprocessingBackend
from .serial import SerialBackend

__all__ = ["BACKENDS", "get_backend", "run_sweep"]

#: Registry of selectable backend names (the CLI's ``--backend`` choices).
BACKENDS = {
    "serial": SerialBackend,
    "mp": MultiprocessingBackend,
    "batch": BatchBackend,
    "distributed": DistributedBackend,
}


def get_backend(
    backend: Backend | str | None = None,
    *,
    jobs: int | None = None,
    workers: Sequence[str] | None = None,
) -> Backend:
    """Resolve a backend instance from an instance, registry name, or ``None``.

    ``jobs`` only applies to backends that run local worker processes
    (``"mp"``); ``workers`` (a list of ``host:port`` addresses) only to
    ``"distributed"``.  Passing either with anything else — an instance or
    a backend that cannot honour it — is an error, so a requested worker
    count or address list is never silently ignored.
    """
    if backend is None:
        backend = "serial"
    if isinstance(backend, Backend):
        if jobs is not None:
            raise ValueError("pass jobs when selecting a backend by name, not an instance")
        if workers is not None:
            raise ValueError("pass workers when selecting a backend by name, not an instance")
        return backend
    name = str(backend)
    if name == "multiprocessing":  # convenience alias
        name = "mp"
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}")
    if workers is not None and name != "distributed":
        raise ValueError(
            f"workers is only meaningful for the 'distributed' backend, not {name!r}"
        )
    if name == "mp":
        return MultiprocessingBackend(jobs=jobs)
    if jobs is not None:
        raise ValueError(f"jobs is only meaningful for the 'mp' backend, not {name!r}")
    if name == "distributed":
        return DistributedBackend(workers)
    return BACKENDS[name]()


def run_sweep(
    points: Iterable[SweepPoint],
    *,
    backend: Backend | str | None = None,
    jobs: int | None = None,
    workers: Sequence[str] | None = None,
    cache: ResultCache | str | os.PathLike[str] | None = None,
) -> list[PointResult]:
    """Execute a sweep and return one result per point, in input order.

    Parameters
    ----------
    points:
        The independent evaluations to run.
    backend:
        Backend instance or registry name (``"serial"``, ``"mp"``,
        ``"batch"``, ``"distributed"``); default serial.
    jobs:
        Worker count for the ``"mp"`` backend.
    workers:
        ``host:port`` addresses for the ``"distributed"`` backend (falls
        back to the ``REPRO_WORKERS`` environment variable).
    cache:
        A :class:`ResultCache` (or a directory path, which constructs one).
        Points whose results are already cached are *not* re-executed.
    """
    resolved = get_backend(backend, jobs=jobs, workers=workers)
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)

    points = list(points)
    results: list[PointResult | None] = [None] * len(points)
    pending: list[tuple[int, SweepPoint]] = []
    for index, point in enumerate(points):
        hit = cache.load(point) if cache is not None else None
        if hit is not None:
            results[index] = hit
        else:
            pending.append((index, point))

    if pending:
        computed = resolved.run([point for _, point in pending])
        if len(computed) != len(pending):
            raise RuntimeError(
                f"backend {resolved.name!r} returned {len(computed)} results "
                f"for {len(pending)} points"
            )
        for (index, point), result in zip(pending, computed):
            results[index] = result
            if cache is not None:
                cache.store(point, result)

    return [result for result in results if result is not None]
