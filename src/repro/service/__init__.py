"""The batched solver service: the library's always-on serving layer.

``repro serve`` exposes the Harvey–Liaw–Liu MPC algorithms (local-ratio
matching / b-matching / vertex cover / set cover, hungry greedy set cover,
MIS, maximal clique, colourings) as a stdlib-only asyncio HTTP service.
Concurrent JSON solve requests are micro-batched into a single
:func:`~repro.backends.run_sweep` call per batch, so the serving layer
inherits everything the sweep layer already guarantees: backend-independent
results, duplicate memoisation (``batch``), process fan-out (``mp``), and
idempotent replays through :class:`~repro.backends.ResultCache`.  Responses
are canonical JSON, byte-identical to a direct in-process
:func:`~repro.service.api.solve_direct` call with the same request.

See ``docs/SERVICE.md`` for the request/response schema, the batching
model, and cache semantics.
"""

from .api import (
    ServiceError,
    SolveRequest,
    parse_solve_request,
    render_response,
    request_point,
    request_signature,
    resolve_algorithm,
    solve_direct,
)
from .adaptive import AdaptiveBatchPolicy
from .batcher import MicroBatcher
from .histogram import LatencyHistogram
from .metrics import ServiceMetrics
from .server import ServiceConfig, ServiceHandle, SolverService, serve, start_in_background

__all__ = [
    "AdaptiveBatchPolicy",
    "LatencyHistogram",
    "MicroBatcher",
    "ServiceConfig",
    "ServiceError",
    "ServiceHandle",
    "ServiceMetrics",
    "SolveRequest",
    "SolverService",
    "parse_solve_request",
    "render_response",
    "request_point",
    "request_signature",
    "resolve_algorithm",
    "serve",
    "solve_direct",
    "start_in_background",
]
