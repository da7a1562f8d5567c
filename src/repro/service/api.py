"""Solve-request protocol: the JSON envelope over :mod:`repro.registry`.

A solve request is a JSON object::

    {"algorithm": "matching",            # any registry name or alias
     "scenario": "powerlaw-dense",       # optional; also "file:<path>"
     "params": {"mu": 0.25, "n": 80},    # optional keyword overrides
     "seed": 7,                          # optional, default 0
     "trials": 1}                        # optional, default 1

and maps 1:1 onto the :class:`~repro.registry.SolveRequest` /
:class:`~repro.backends.SweepPoint` that :func:`repro.solve` builds for the
same arguments.  This module only owns the *wire* concerns — JSON decoding,
the envelope field check (derived from the request dataclass itself), and
mapping registry errors onto HTTP statuses.  Name resolution, parameter
validation, point construction, and canonical response rendering all live
in :mod:`repro.registry.solve`, which is what makes a served response
byte-identical to :func:`repro.solve` and the ``repro solve`` CLI for the
same request.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..backends import execute_point
from ..backends.base import PointResult
from ..registry import (
    RegistryError,
    SolveRequest,
    UnknownAlgorithmError,
    build_request,
    canonical_response,
    get_algorithm,
    request_point,
    request_signature,
)
from ..registry.solve import REQUEST_FIELDS as _REQUEST_FIELDS

__all__ = [
    "ServiceError",
    "SolveRequest",
    "parse_solve_request",
    "render_response",
    "request_point",
    "request_signature",
    "resolve_algorithm",
    "solve_direct",
]

class ServiceError(Exception):
    """A request-level failure, carrying the HTTP status it maps onto."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = int(status)


def resolve_algorithm(name: str) -> str:
    """Map any accepted algorithm name onto its experiment (row) name."""
    try:
        return get_algorithm(name).experiment
    except UnknownAlgorithmError as exc:
        # exc.known is already de-duplicated across names and aliases.
        raise ServiceError(str(exc)) from None


def parse_solve_request(payload: bytes | str | Mapping[str, Any]) -> SolveRequest:
    """Parse and validate a solve request; raises :class:`ServiceError` (400)."""
    if isinstance(payload, (bytes, str)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise ServiceError("request body must be a JSON object")
    unknown = set(payload) - _REQUEST_FIELDS
    if unknown:
        raise ServiceError(
            f"unknown request field(s) {sorted(unknown)}; accepted: {sorted(_REQUEST_FIELDS)}"
        )
    if "algorithm" not in payload:
        raise ServiceError("request is missing the required 'algorithm' field")
    try:
        return build_request(
            payload["algorithm"],
            scenario=payload.get("scenario"),
            # No `or {}` fallback: a falsy non-mapping ([], false, 0) must
            # hit the same "params must be a mapping" 400 as any other.
            params=payload.get("params"),
            seed=payload.get("seed", 0),
            trials=payload.get("trials", 1),
        )
    except (RegistryError, ValueError, OSError) as exc:
        raise ServiceError(str(exc)) from exc


def render_response(request: SolveRequest, result: PointResult) -> bytes:
    """Render a solve response as canonical JSON bytes.

    Delegates to :func:`repro.registry.canonical_response`;
    ``result.cached`` is deliberately *excluded* (it travels in the
    ``X-Repro-Cache`` header instead) so cached replays stay byte-identical
    to fresh computations.
    """
    return canonical_response(request, result.records)


def solve_direct(request: SolveRequest) -> bytes:
    """The golden path: evaluate the request in-process and render it.

    ``repro serve`` responses are required to be byte-identical to this for
    the same request — the service may change *where* a request computes,
    never *what* it answers.
    """
    return render_response(request, execute_point(request_point(request)))
