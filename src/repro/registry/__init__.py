"""Unified algorithm registry + the public :func:`repro.solve` facade.

* :mod:`repro.registry.spec` — :class:`AlgorithmSpec` and the
  :func:`register_algorithm` decorator: every paper algorithm is declared
  once (name, aliases, workload kind, validated parameters, theory-bounds
  hook, baselines, solver callable) and every dispatch surface resolves
  through that single declaration.
* :mod:`repro.registry.solve` — the :func:`solve` facade and the shared
  request/response model: request validation, the request → sweep-point
  mapping, and canonical response rendering, used identically by the
  library, the experiment drivers, the CLI, and the HTTP service.

See ``docs/API.md`` for the public API and the "add an algorithm in one
file" extension guide.
"""

from .solve import (
    REQUEST_FIELDS,
    SolveRequest,
    SolveResult,
    build_request,
    canonical_response,
    request_point,
    request_signature,
    response_payload,
    solve,
)
from .spec import (
    AlgorithmSpec,
    RegistryError,
    UnknownAlgorithmError,
    UnknownParameterError,
    algorithm_names,
    experiment_names,
    get_algorithm,
    iter_algorithms,
    known_algorithm_names,
    register_algorithm,
)

__all__ = [
    "AlgorithmSpec",
    "REQUEST_FIELDS",
    "RegistryError",
    "SolveRequest",
    "SolveResult",
    "UnknownAlgorithmError",
    "UnknownParameterError",
    "algorithm_names",
    "build_request",
    "canonical_response",
    "experiment_names",
    "get_algorithm",
    "iter_algorithms",
    "known_algorithm_names",
    "register_algorithm",
    "request_point",
    "request_signature",
    "response_payload",
    "solve",
]
