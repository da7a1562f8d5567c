"""Wire format for shipping sweep points and results between hosts.

A :class:`~repro.backends.SweepPoint` crosses the network as a JSON object::

    {"experiment": "fig1-mis",
     "fn": "repro.experiments.figure1.mis_experiment",   # module-level path
     "kwargs": {"n": 60, "c": 0.4},
     "seed": 7,            # or a list for tuple seeds
     "trials": 1}

The function travels *by reference* (its import path), exactly like the
``mp`` backend's pickling — which is why sweep functions must be
module-level.  The receiving worker re-imports the function and recomputes
the point's :func:`~repro.backends.base.point_digest` itself, so a
malformed or tampered payload can never be credited against the wrong
idempotency key.

Encoding is *checked*: :func:`encode_point` round-trips the payload
through JSON and verifies the decoded point has the same canonical
signature as the original, so a point that cannot survive transport
(non-JSON-able kwargs, a lambda, a closure) fails loudly at dispatch time
on the coordinator — never silently on a worker.

Results travel as the same canonical record payloads the
:class:`~repro.backends.ResultCache` stores
(:func:`~repro.backends.cache.record_to_payload`), which round-trip
float64 exactly; that shared serialization is what makes a distributed
sweep byte-identical to a serial one.
"""

from __future__ import annotations

import importlib
import json
import math
from typing import Any, Sequence

from ..backends.base import SweepPoint, point_digest, point_signature
from ..backends.cache import record_from_payload, record_to_payload

__all__ = [
    "DistributedError",
    "RemoteExecutionError",
    "WorkerProtocolError",
    "WorkerUnavailableError",
    "callable_path",
    "decode_point",
    "decode_records",
    "encode_point",
    "encode_records",
    "payload_words",
    "point_key",
    "resolve_callable",
]


class DistributedError(RuntimeError):
    """Base class for coordinator/worker failures."""


class WorkerUnavailableError(DistributedError):
    """A worker stopped answering HTTP calls (crash, kill, network)."""


class WorkerProtocolError(DistributedError):
    """A worker answered, but not with a valid protocol payload."""


class RemoteExecutionError(DistributedError):
    """A point raised on the worker that executed it."""

    def __init__(self, message: str, *, digest: str = "", worker: str = "") -> None:
        super().__init__(message)
        self.digest = digest
        self.worker = worker


# --------------------------------------------------------------------------- #
# Callables by reference
# --------------------------------------------------------------------------- #
def callable_path(fn: Any) -> str:
    """The importable ``module.qualname`` path of a module-level callable.

    Raises :class:`WorkerProtocolError` for lambdas, closures, bound
    methods, and anything else that cannot be re-imported on another host.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        raise WorkerProtocolError(f"{fn!r} has no importable module path")
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise WorkerProtocolError(
            f"{module}.{qualname} is not module-level; distributed execution "
            "ships functions by import path"
        )
    return f"{module}.{qualname}"


def resolve_callable(path: str) -> Any:
    """Import the callable named by ``path`` (``module.qualname``)."""
    module_name, _, qualname = path.rpartition(".")
    while module_name:
        try:
            module = importlib.import_module(module_name)
            break
        except ImportError:
            # The split point may sit inside a class qualname
            # (``pkg.mod.Class.method``): walk left until a module imports.
            module_name, _, head = module_name.rpartition(".")
            qualname = f"{head}.{qualname}"
    else:
        raise WorkerProtocolError(f"cannot import any module for {path!r}")
    target: Any = module
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise WorkerProtocolError(
                f"{path!r} does not resolve: {module.__name__} has no {part!r}"
            ) from None
    if not callable(target):
        raise WorkerProtocolError(f"{path!r} resolved to a non-callable")
    return target


# --------------------------------------------------------------------------- #
# Points
# --------------------------------------------------------------------------- #
def _decode_seed(raw: Any) -> int | tuple[int, ...]:
    if isinstance(raw, list):
        return tuple(int(v) for v in raw)
    return int(raw)


def decode_point(payload: dict[str, Any]) -> SweepPoint:
    """Rebuild a :class:`SweepPoint` from :func:`encode_point` output."""
    try:
        return SweepPoint(
            experiment=str(payload["experiment"]),
            fn=resolve_callable(str(payload["fn"])),
            kwargs=dict(payload.get("kwargs") or {}),
            seed=_decode_seed(payload.get("seed", 0)),
            trials=int(payload.get("trials", 1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkerProtocolError(f"malformed point payload: {exc}") from exc


def encode_point(point: SweepPoint) -> dict[str, Any]:
    """Encode a point for transport, verifying it survives the trip.

    The returned payload has already been round-tripped through JSON and
    re-decoded; if the re-decoded point's canonical signature differs from
    the original's, the point is not transportable and a
    :class:`WorkerProtocolError` names it.  (Tuples inside ``kwargs``
    arrive as lists — the canonical signature treats the two identically,
    so JSON-shaped kwargs, like everything built from a solve request, are
    always safe.)
    """
    raw = {
        "experiment": point.experiment,
        "fn": callable_path(point.fn),
        "kwargs": dict(point.kwargs),
        "seed": list(point.seed) if isinstance(point.seed, tuple) else int(point.seed),
        "trials": int(point.trials),
    }
    try:
        # A validation round-trip, not a wire rendering: the result is
        # immediately parsed back, so key order never reaches any bytes.
        payload = json.loads(json.dumps(raw, allow_nan=False))  # repro-lint: disable=WIRE001
    except (TypeError, ValueError) as exc:
        raise WorkerProtocolError(
            f"point {point.experiment!r} has kwargs that cannot cross the "
            f"wire as JSON: {exc}"
        ) from exc
    decoded = decode_point(payload)
    if point_signature(decoded) != point_signature(point):
        raise WorkerProtocolError(
            f"point {point.experiment!r} does not survive JSON transport; "
            "distributed sweeps need JSON-shaped kwargs and module-level fns"
        )
    return payload


def point_key(point: SweepPoint) -> str:
    """The idempotency key of a point: its ResultCache content digest."""
    return point_digest(point)


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
def encode_records(records: Sequence[Any]) -> list[dict[str, Any]]:
    """Records → canonical JSON payloads (the ResultCache serialization)."""
    return [record_to_payload(record) for record in records]


def decode_records(payloads: Sequence[dict[str, Any]]) -> list[Any]:
    """Canonical JSON payloads → :class:`ExperimentRecord` objects."""
    try:
        return [record_from_payload(payload) for payload in payloads]
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkerProtocolError(f"malformed result payload: {exc}") from exc


def payload_words(value: Any) -> int:
    """Size of a JSON-able value in 8-byte machine words (at least 1).

    The distributed layer's *measured* counterpart of the model-level
    :func:`~repro.mapreduce.engine.words_of` accounting: the actual
    canonical-JSON byte length of what crossed the wire, rounded up to
    words, so MPC load checks run against real payload sizes.
    """
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return max(1, math.ceil(len(encoded.encode("utf-8")) / 8))
