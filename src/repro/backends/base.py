"""Execution-backend contract: sweep points, point results, and the ABC.

A *sweep* is an ordered list of independent experiment evaluations — the
cells of a Figure-1 grid, the µ-values of an ablation, the sizes of a
scaling curve.  Each evaluation is described by a :class:`SweepPoint`:

* ``fn`` — a **module-level** callable ``fn(rng, **kwargs)`` returning one
  :class:`~repro.experiments.harness.ExperimentRecord` (or a list of them).
  Module-level matters: points are shipped to worker processes by pickle,
  which serialises functions by reference.
* ``seed`` — the point's *own* entropy (an int, or a tuple of ints fed to
  :class:`numpy.random.SeedSequence`).  Every trial RNG is derived from it,
  so a point's result depends only on the point — never on which backend
  ran it, in what order, or alongside which other points.  This is the
  invariant that makes serial and parallel execution byte-identical.
* ``trials`` — how many independent repetitions to run; trial ``i`` uses
  the ``i``-th spawned child of ``seed``.

:func:`execute_point` is the single evaluation routine shared by every
backend (and shipped to worker processes), so "what a point computes" is
defined exactly once.
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .cache import EntryStamp

__all__ = [
    "Backend",
    "PointResult",
    "SweepPoint",
    "config_signature",
    "execute_point",
    "point_signature",
    "spawn_rngs",
]


def spawn_rngs(seed: int | Sequence[int], count: int) -> list[np.random.Generator]:
    """Independent generators for ``count`` repetitions derived from one seed."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(max(1, count))]


@dataclass(frozen=True)
class SweepPoint:
    """One independent evaluation of a sweep.

    ``experiment`` is a human-readable name (also used in cache keys);
    ``kwargs`` parameterise ``fn``; ``seed``/``trials`` fix the randomness
    as described in the module docstring.
    """

    experiment: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed: int | tuple[int, ...] = 0
    trials: int = 1


@dataclass
class PointResult:
    """The outcome of executing one :class:`SweepPoint`.

    ``records`` holds one entry per trial (more, if ``fn`` returns lists);
    ``signature`` is the canonical identity of the point (the cache key
    material); ``cached`` marks results served from a
    :class:`~repro.backends.cache.ResultCache` rather than recomputed, and
    ``stamp`` names the entry file such a result was read from.
    """

    experiment: str
    signature: str
    records: list[Any] = field(default_factory=list)
    cached: bool = False
    stamp: EntryStamp | None = field(default=None, compare=False, repr=False)


def _jsonable(value: Any) -> Any:
    """Map a kwargs/record value onto a canonical JSON-serialisable form."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _fn_path(fn: Callable[..., Any]) -> str:
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", getattr(fn, "__name__", repr(fn)))
    path = f"{module}.{qualname}"
    if "<locals>" in qualname or "<lambda>" in qualname:
        # Closures and lambdas in the same scope share a qualname, which
        # would make distinct points indistinguishable (wrong memoisation /
        # cache hits).  Disambiguate by object identity: duplicates within
        # one process still coalesce, while on-disk cache lookups simply
        # miss — stable caching requires module-level functions.
        path += f"@{id(fn):x}"
    return path


def config_signature(point: SweepPoint) -> str:
    """Canonical identity of a point's *configuration* (seed excluded).

    Two points with equal configuration signatures run the same function on
    the same workload parameters; :class:`~repro.backends.batch.BatchBackend`
    uses this to group repeated trials of one configuration.
    """
    payload = {
        "experiment": point.experiment,
        "fn": _fn_path(point.fn),
        "kwargs": _jsonable(dict(sorted(point.kwargs.items()))),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def point_signature(point: SweepPoint) -> str:
    """Canonical identity of a point, seed and trial count included."""
    payload = {
        "config": config_signature(point),
        "seed": _jsonable(point.seed),
        "trials": int(point.trials),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def point_digest(point: SweepPoint) -> str:
    """Short stable hash of the full point signature (cache file names)."""
    return hashlib.sha256(point_signature(point).encode("utf-8")).hexdigest()


def execute_point(point: SweepPoint) -> PointResult:
    """Evaluate one sweep point: one ``fn`` call per trial RNG.

    This is the only place a point is ever evaluated — every backend calls
    (or ships to a worker process) this exact function, which is what makes
    results backend-independent.
    """
    records: list[Any] = []
    kwargs = dict(point.kwargs)
    for rng in spawn_rngs(point.seed, point.trials):
        outcome = point.fn(rng, **kwargs)
        if isinstance(outcome, list):
            records.extend(outcome)
        else:
            records.append(outcome)
    return PointResult(
        experiment=point.experiment,
        signature=point_signature(point),
        records=records,
    )


class Backend(abc.ABC):
    """Strategy for executing a list of sweep points.

    Implementations must return one :class:`PointResult` per input point,
    **in input order**, and must produce results identical to
    ``[execute_point(p) for p in points]`` — a backend may change *where*
    and *when* points run, never *what* they compute.
    """

    #: Registry name (what ``--backend`` on the CLI selects).
    name: str = "abstract"

    @abc.abstractmethod
    def run(self, points: Sequence[SweepPoint]) -> list[PointResult]:
        """Execute ``points`` and return their results in input order."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
