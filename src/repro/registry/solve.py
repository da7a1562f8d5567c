"""``repro.solve()`` — the single public dispatch path for every surface.

A solve is described by ``(algorithm, scenario, params, seed, trials)``.
:func:`build_request` validates that tuple against the registry into a
frozen :class:`SolveRequest`; :func:`request_point` maps the request onto
the one :class:`~repro.backends.SweepPoint` it denotes (the cache-key
identity); :func:`solve` executes it through
:func:`~repro.backends.run_sweep` and wraps the outcome in a typed
:class:`SolveResult`.

Canonical rendering lives here too: :func:`canonical_response` turns a
request and its records into canonical JSON bytes (sorted keys, fixed
separators), so the response is a pure function of the request.  The
library facade, the ``repro solve`` CLI subcommand, and the ``/solve``
route of ``repro serve`` all render through this one function — which is
what makes the three surfaces byte-identical for the same request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from ..backends import Backend, ResultCache, run_sweep
from ..backends.base import SweepPoint, _jsonable, point_signature
from ..backends.cache import record_to_payload
from ..datasets import canonical_scenario_spec, resolve_scenario
from .spec import AlgorithmSpec, RegistryError, get_algorithm

__all__ = [
    "REQUEST_FIELDS",
    "SolveRequest",
    "SolveResult",
    "build_request",
    "canonical_response",
    "request_point",
    "request_signature",
    "response_payload",
    "solve",
]


@dataclass(frozen=True)
class SolveRequest:
    """A validated solve request (``experiment`` is the resolved row name).

    ``algorithm`` keeps the name the caller used (canonical or alias) so a
    rendered response echoes the request verbatim; ``experiment`` is the
    registry's resolved sweep-point name.
    """

    algorithm: str
    experiment: str
    scenario: str | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    trials: int = 1


#: The fields a solve request may carry, derived from the request dataclass
#: itself (``experiment`` is an output of resolution, not an input).
REQUEST_FIELDS = frozenset(f.name for f in fields(SolveRequest)) - {"experiment"}


def _validate_scenario(spec: AlgorithmSpec, scenario: str | None) -> str | None:
    """Resolve + kind-check a scenario spec; returns its canonical form."""
    if scenario is None:
        return None
    if not isinstance(scenario, str) or not scenario:
        raise RegistryError("'scenario' must be a non-empty string")
    resolved = resolve_scenario(scenario)
    canonical = canonical_scenario_spec(scenario)
    if resolved.kind != spec.kind:
        raise RegistryError(
            f"scenario {scenario!r} provides a {resolved.kind} workload but "
            f"{spec.experiment!r} needs {spec.kind}"
        )
    return canonical


def build_request(
    algorithm: str,
    *,
    scenario: str | None = None,
    params: Mapping[str, Any] | None = None,
    seed: int = 0,
    trials: int = 1,
) -> SolveRequest:
    """Validate one solve description against the registry.

    Raises :class:`~repro.registry.spec.RegistryError` subclasses on an
    unknown algorithm or parameter, a malformed seed/trial count, or an
    incompatible scenario (``ValueError``/``OSError`` propagate from
    scenario resolution itself).
    """
    if not isinstance(algorithm, str):
        raise RegistryError("'algorithm' must be a string")
    spec = get_algorithm(algorithm)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise RegistryError("'seed' must be a non-negative integer")
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise RegistryError("'trials' must be a positive integer")
    clean = spec.validate_params(params, context=algorithm)
    return SolveRequest(
        algorithm=algorithm,
        experiment=spec.experiment,
        scenario=_validate_scenario(spec, scenario),
        params=clean,
        seed=seed,
        trials=trials,
    )


def request_point(request: SolveRequest) -> SweepPoint:
    """The :class:`SweepPoint` a request maps onto (the cache-key identity).

    The point's seed is the request seed verbatim, so the service, a cached
    replay, a CLI invocation, and a direct library call on the same request
    share one signature — and therefore one result.
    """
    # Resolve via the requested name: the experiment name is only a lookup
    # key when the spec registered it as an alias, which is not required.
    return get_algorithm(request.algorithm).build_point(
        params=request.params,
        scenario=request.scenario,
        seed=request.seed,
        trials=request.trials,
    )


def request_signature(request: SolveRequest) -> str:
    """Canonical identity of a request (its point's signature)."""
    return point_signature(request_point(request))


def response_payload(request: SolveRequest, records: list[Any]) -> dict[str, Any]:
    """The JSON-ready response payload of a request and its records."""
    return {
        "algorithm": request.algorithm,
        "experiment": request.experiment,
        "scenario": request.scenario,
        "params": _jsonable(dict(request.params)),
        "seed": request.seed,
        "trials": request.trials,
        "records": [record_to_payload(record) for record in records],
    }


def canonical_response(request: SolveRequest, records: list[Any]) -> bytes:
    """Render a solve response as canonical JSON bytes.

    Sorted keys and fixed separators make the bytes a pure function of the
    request and its records.  Whether a result was cached is deliberately
    *not* part of the payload, so cached replays stay byte-identical to
    fresh computations.
    """
    return json.dumps(
        response_payload(request, records), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


@dataclass
class SolveResult:
    """The typed outcome of one :func:`solve` call.

    ``records`` holds one :class:`~repro.experiments.harness.ExperimentRecord`
    per trial: the solution's objective value and measured rounds/space live
    in ``record.metrics``, the theorem's guarantee in ``record.bounds``, and
    the independent certificate check's verdict in ``record.valid``.
    """

    request: SolveRequest
    records: list[Any]
    cached: bool = False

    @property
    def algorithm(self) -> str:
        return self.request.algorithm

    @property
    def experiment(self) -> str:
        return self.request.experiment

    @property
    def scenario(self) -> str | None:
        return self.request.scenario

    @property
    def params(self) -> Mapping[str, Any]:
        return self.request.params

    @property
    def seed(self) -> int:
        return self.request.seed

    @property
    def trials(self) -> int:
        return self.request.trials

    @property
    def record(self) -> Any:
        """The first (often only) trial record."""
        return self.records[0]

    @property
    def metrics(self) -> Mapping[str, float]:
        """Measured quantities of the first trial (objective, rounds, space)."""
        return self.record.metrics

    @property
    def bounds(self) -> Mapping[str, float]:
        """The theorem's guarantee for the workload that actually ran."""
        return self.record.bounds

    @property
    def valid(self) -> bool:
        """Did every trial pass its independent certificate check?"""
        return all(getattr(record, "valid", True) for record in self.records)

    def payload(self) -> dict[str, Any]:
        """The response as a JSON-ready dict."""
        return response_payload(self.request, self.records)

    def canonical_json(self) -> bytes:
        """The response as canonical bytes — identical across all surfaces."""
        return canonical_response(self.request, self.records)


def solve(
    algorithm: str,
    scenario: str | None = None,
    *,
    params: Mapping[str, Any] | None = None,
    seed: int = 0,
    trials: int = 1,
    backend: Backend | str | None = None,
    jobs: int | None = None,
    workers: list[str] | None = None,
    cache: ResultCache | str | None = None,
) -> SolveResult:
    """Solve one problem instance with a registered algorithm.

    Parameters
    ----------
    algorithm:
        Canonical name or alias (see ``repro algorithms`` or
        :func:`repro.registry.algorithm_names`).
    scenario:
        Optional workload: a named scenario (``"powerlaw-dense"``) or an
        ingested dataset (``"file:<path>"``); default is the algorithm's
        built-in generator at its declared parameters.
    params:
        Keyword overrides for the solver (validated against the registry —
        an unknown key raises a clear error naming the accepted ones).
    seed / trials:
        The point's entropy and repetition count (trial ``i`` uses the
        ``i``-th spawned child of ``seed``).
    backend / jobs / workers / cache:
        Execution strategy, forwarded to :func:`~repro.backends.run_sweep`
        (``workers`` is the ``host:port`` list of the ``"distributed"``
        backend).  Results are backend-independent by construction.

    Returns a :class:`SolveResult`; ``result.canonical_json()`` is
    byte-identical to the ``repro solve`` CLI output and a ``repro serve``
    response body for the same ``(algorithm, scenario, params, seed,
    trials)``.
    """
    request = build_request(
        algorithm, scenario=scenario, params=params, seed=seed, trials=trials
    )
    [result] = run_sweep(
        [request_point(request)], backend=backend, jobs=jobs, workers=workers, cache=cache
    )
    return SolveResult(request=request, records=list(result.records), cached=result.cached)
