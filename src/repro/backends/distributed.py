"""The ``distributed`` backend: sweeps across worker processes and hosts.

A thin :class:`~repro.backends.base.Backend` adapter around
:class:`repro.distributed.Coordinator` at its default replication, poll
interval and timeout (build a ``Coordinator`` to change them).  Workers
are ``repro worker`` processes (the solver service with the worker
endpoints enabled); their addresses come from the ``workers`` argument
or, for registry-name selection (``backend="distributed"``), the
``REPRO_WORKERS`` environment variable (comma-separated ``host:port``
list).

The heavy imports live in :mod:`repro.distributed`; this module keeps the
backend registry import-light.
"""

from __future__ import annotations

import os
from typing import Sequence

from .base import Backend, PointResult, SweepPoint

__all__ = ["DistributedBackend", "workers_from_env"]

#: Environment variable consulted when no explicit worker list is given.
WORKERS_ENV = "REPRO_WORKERS"


def workers_from_env() -> list[str]:
    """Worker addresses from ``REPRO_WORKERS`` (comma-separated)."""
    raw = os.environ.get(WORKERS_ENV, "")
    return [part.strip() for part in raw.split(",") if part.strip()]


class DistributedBackend(Backend):
    """Shard points across coordinator-driven workers (see docs/DISTRIBUTED.md)."""

    name = "distributed"

    def __init__(self, workers: Sequence[str] | None = None) -> None:
        addresses = list(workers) if workers is not None else workers_from_env()
        if not addresses:
            raise ValueError(
                "the distributed backend needs worker addresses: pass "
                "workers=['host:port', ...] (CLI: --workers) or set "
                f"{WORKERS_ENV}"
            )
        self.workers = [str(a) for a in addresses]
        self.last_stats: dict | None = None

    def run(self, points: Sequence[SweepPoint]) -> list[PointResult]:
        from ..distributed import Coordinator

        coordinator = Coordinator(self.workers)
        results = coordinator.run(points)
        self.last_stats = coordinator.stats.as_dict()
        return results
