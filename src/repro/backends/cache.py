"""Disk cache for completed sweep points, keyed by configuration hash.

Every sweep point has a canonical signature (experiment name, function
path, kwargs, seed, trial count — see
:func:`~repro.backends.base.point_signature`); its SHA-256 digest names a
JSON file under the cache directory.  :func:`~repro.backends.sweep.run_sweep`
consults the cache before dispatching work, so re-running a sweep skips
every point that already finished — interrupted Figure-1 grids resume where
they stopped, and unchanged cells never recompute.

Records are stored as plain JSON (numpy scalars are converted to Python
numbers, which round-trip exactly for float64), together with the full
signature so hash collisions are detected rather than silently served.
Entries never expire on their own; ``clear()`` empties the cache, and
deleting individual ``*.json`` files invalidates single points.  A loaded
result carries an :class:`EntryStamp` of the file it was read from, so a
copy kept elsewhere can tell when that file has been deleted or replaced.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .base import PointResult, SweepPoint, point_digest, point_signature

__all__ = ["EntryStamp", "ResultCache", "record_from_payload", "record_to_payload"]

#: Format marker stored in every entry; bump when the layout changes so
#: stale caches are treated as misses instead of misparsed.
_CACHE_VERSION = 1


def _package_version() -> str:
    from .. import __version__

    return __version__


def record_to_payload(record: Any) -> dict[str, Any]:
    """Canonical JSON form of an ``ExperimentRecord``.

    The single serialization both cache entries and service responses use,
    so the two can never drift: a record stored here and reloaded renders
    exactly like a freshly computed one.
    """
    from ..experiments.harness import ExperimentRecord

    if not isinstance(record, ExperimentRecord):
        raise TypeError(
            f"can only serialise ExperimentRecord outputs, got {type(record).__name__}"
        )
    from .base import _jsonable

    return {
        "experiment": record.experiment,
        "parameters": _jsonable(record.parameters),
        "metrics": {str(k): float(v) for k, v in record.metrics.items()},
        "bounds": {str(k): float(v) for k, v in record.bounds.items()},
        "valid": bool(record.valid),
        "notes": _jsonable(record.notes),
    }


def record_from_payload(payload: dict[str, Any]) -> Any:
    """Rebuild an ``ExperimentRecord`` from :func:`record_to_payload` output."""
    from ..experiments.harness import ExperimentRecord

    return ExperimentRecord(
        experiment=payload["experiment"],
        parameters=dict(payload["parameters"]),
        metrics={k: float(v) for k, v in payload["metrics"].items()},
        bounds={k: float(v) for k, v in payload["bounds"].items()},
        valid=bool(payload["valid"]),
        notes=dict(payload["notes"]),
    )


@dataclass(frozen=True)
class EntryStamp:
    """An entry file as it was when a result was read from it."""

    path: str
    inode: int
    mtime_ns: int
    size: int

    def current(self) -> bool:
        """Whether ``path`` is still the file that was read (not deleted or replaced)."""
        try:
            stat = os.stat(self.path)
        except OSError:
            return False
        return (stat.st_ino, stat.st_mtime_ns, stat.st_size) == (
            self.inode, self.mtime_ns, self.size
        )


class ResultCache:
    """Persist completed :class:`PointResult`\\ s under ``directory``."""

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def path_for(self, point: SweepPoint) -> Path:
        """The file that holds (or would hold) ``point``'s result."""
        return self.directory / f"{point_digest(point)}.json"

    def load(self, point: SweepPoint) -> PointResult | None:
        """Return the cached result for ``point``, or ``None`` on a miss.

        The result's ``stamp`` is taken from the file it was read from.
        """
        path = self.path_for(point)
        try:
            with open(path, "rb") as fh:
                stat = os.fstat(fh.fileno())
                payload = json.loads(fh.read().decode("utf-8"))
        except (OSError, ValueError):  # unreadable, not UTF-8, or not JSON
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != _CACHE_VERSION:
            return None
        if payload.get("repro_version") != _package_version():
            # Results computed by a different code version may no longer be
            # reproducible; recompute rather than serve stale numbers.  (The
            # signature cannot catch same-version source edits — clear the
            # cache after changing algorithm code.)
            return None
        if payload.get("signature") != point_signature(point):
            # Digest collision or hand-edited entry: treat as a miss.
            return None
        try:
            records = [record_from_payload(item) for item in payload["records"]]
        except (KeyError, TypeError, ValueError, AttributeError):
            # A record that does not rebuild (a hand-edited entry) is a miss.
            return None
        return PointResult(
            experiment=point.experiment,
            signature=payload["signature"],
            records=records,
            cached=True,
            stamp=EntryStamp(str(path), stat.st_ino, stat.st_mtime_ns, stat.st_size),
        )

    # ------------------------------------------------------------------ #
    # Storage
    # ------------------------------------------------------------------ #
    def store(self, point: SweepPoint, result: PointResult) -> Path:
        """Persist ``result`` for ``point`` (atomically) and return its path."""
        payload = {
            "version": _CACHE_VERSION,
            "repro_version": _package_version(),
            "signature": point_signature(point),
            "experiment": point.experiment,
            "records": [record_to_payload(record) for record in result.records],
        }
        path = self.path_for(point)
        # Insertion order is preserved (no key sorting) so a reloaded record
        # renders identically to a freshly computed one.
        text = json.dumps(payload, indent=2)  # repro-lint: disable=WIRE001
        # The temp name must be unique per writer: several processes may share
        # one cache directory (mp sweeps, the solver service), and a fixed
        # `<digest>.tmp` lets their write/replace pairs interleave — one writer
        # publishes a torn file, the other crashes replacing a name that is
        # already gone.  ``NamedTemporaryFile`` picks a fresh name per call and
        # ``os.replace`` keeps the publish atomic, so the last writer wins with
        # a complete entry.
        fd = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=self.directory,
            prefix=f"{path.stem}.",
            suffix=".tmp",
            delete=False,
        )
        try:
            with fd:
                fd.write(text)
            os.replace(fd.name, path)
        except BaseException:
            try:
                os.unlink(fd.name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
