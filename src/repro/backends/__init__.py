"""Pluggable execution backends for experiment sweeps.

The experiment layer describes *what* to run — a list of independent,
self-seeded :class:`SweepPoint` evaluations — and this package decides
*how* to run it:

* :class:`SerialBackend` — one point after another in-process (default;
  the pre-backend behaviour).
* :class:`MultiprocessingBackend` — points fanned out across worker
  processes, byte-identical results to serial.
* :class:`BatchBackend` — repeated trials of one configuration grouped and
  exact duplicates memoised.
* :class:`DistributedBackend` — points sharded across ``repro worker``
  processes on one or many hosts (see :mod:`repro.distributed`).

:func:`run_sweep` is the single entry point (backend resolution + disk
cache + dispatch); see ``docs/ARCHITECTURE.md`` for where this layer sits.
"""

from .base import (
    Backend,
    PointResult,
    SweepPoint,
    config_signature,
    execute_point,
    point_signature,
    spawn_rngs,
)
from .batch import BatchBackend
from .cache import ResultCache
from .distributed import DistributedBackend
from .parallel import MultiprocessingBackend
from .serial import SerialBackend
from .sweep import BACKENDS, get_backend, run_sweep

__all__ = [
    "BACKENDS",
    "Backend",
    "BatchBackend",
    "DistributedBackend",
    "MultiprocessingBackend",
    "PointResult",
    "ResultCache",
    "SerialBackend",
    "SweepPoint",
    "config_signature",
    "execute_point",
    "get_backend",
    "point_signature",
    "run_sweep",
    "spawn_rngs",
]
