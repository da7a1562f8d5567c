"""The algorithm registry: one authoritative catalogue of every solver.

Before this package existed the paper's algorithms were reachable through
three divergent dispatch surfaces — the ``FIGURE1_EXPERIMENTS`` mapping in
:mod:`repro.experiments.figure1`, the ``ALGORITHMS`` string-remapping layer
in :mod:`repro.service.api`, and hand-maintained per-driver CLI flags — so
adding one algorithm meant editing all three in lockstep.  Now every
algorithm is declared exactly once, by decorating its module-level
experiment function with :func:`register_algorithm`::

    @register_algorithm(
        "matching",
        experiment="fig1-matching",
        kind="graph",
        aliases=("fig1-matching",),
        guarantee="2-approximation",
        theorem="Theorem 5.6",
        bounds=theory.matching_bound,
        baselines=("greedy-matching", "filtering-matching", "exact-matching"),
    )
    def matching_experiment(rng, *, n=130, c=0.45, mu=0.25, ...): ...

and every dispatch surface — :func:`repro.solve`, the Figure-1/ablation
drivers, ``repro solve`` / ``repro algorithms`` on the CLI, and the
``/solve`` + ``/algorithms`` routes of ``repro serve`` — resolves names,
validates parameters, and builds sweep points through the resulting
:class:`AlgorithmSpec`.

The accepted keyword parameters (and their defaults) are derived from the
solver's signature, so the spec can never drift from the function it
describes; the solver itself stays a plain module-level callable, which is
what keeps sweep points picklable and cache signatures stable.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping

from ..backends import SweepPoint

__all__ = [
    "AlgorithmSpec",
    "RegistryError",
    "UnknownAlgorithmError",
    "UnknownParameterError",
    "algorithm_names",
    "experiment_names",
    "get_algorithm",
    "iter_algorithms",
    "known_algorithm_names",
    "register_algorithm",
]


class RegistryError(ValueError):
    """A registry-level failure (unknown name, bad parameter, bad spec)."""


class UnknownAlgorithmError(RegistryError):
    """An algorithm name that resolves to nothing in the registry.

    ``known`` carries the full, de-duplicated list of accepted names
    (canonical names and aliases alike) so callers can render a helpful
    message without re-listing names that appear on both surfaces.
    """

    def __init__(self, name: str, known: list[str]) -> None:
        self.name = name
        self.known = list(known)
        super().__init__(f"unknown algorithm {name!r}; choose one of {self.known}")


class UnknownParameterError(RegistryError):
    """A solver parameter the algorithm's signature does not accept."""

    def __init__(self, algorithm: str, parameter: str, accepted: list[str]) -> None:
        self.algorithm = algorithm
        self.parameter = parameter
        self.accepted = sorted(accepted)
        super().__init__(
            f"unknown parameter {parameter!r} for algorithm {algorithm!r}; "
            f"accepted: {self.accepted}"
        )


def _solver_params(fn: Callable[..., Any]) -> dict[str, Any]:
    """Accepted keyword parameters (name → default) from a solver signature.

    Only keyword-only parameters count (the leading positional is the trial
    RNG); ``scenario`` is excluded — it travels in the request's own field,
    never through ``params``.
    """
    params: dict[str, Any] = {}
    for name, parameter in inspect.signature(fn).parameters.items():
        if parameter.kind != inspect.Parameter.KEYWORD_ONLY or name == "scenario":
            continue
        default = parameter.default
        params[name] = None if default is inspect.Parameter.empty else default
    return params


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: name, solver, workload kind, and metadata.

    Attributes
    ----------
    name:
        Canonical public name (what ``repro.solve`` and the service accept).
    experiment:
        The Figure-1 row / sweep-point name.  This is the cache-key identity
        of the algorithm, so it must stay stable across refactors.
    solver:
        Module-level callable ``fn(rng, **params)`` returning one
        :class:`~repro.experiments.harness.ExperimentRecord` (module-level
        so points pickle to worker processes and cache signatures resolve).
    kind:
        Workload kind the solver consumes: ``"graph"`` or ``"setcover"``.
    bounds:
        The :mod:`repro.analysis.bounds` hook producing the row's
        :class:`~repro.analysis.bounds.TheoremBound`.
    aliases:
        Additional accepted names (e.g. the raw ``fig1-*`` row name).
    guarantee:
        Human-readable approximation guarantee (e.g. ``"2-approximation"``).
    theorem:
        The paper theorem the guarantee comes from.
    baselines:
        Names of the comparison baselines the experiment records.
    description:
        One-line summary (defaults to the solver docstring's first line).
    params:
        Accepted keyword parameters and their defaults, derived from the
        solver signature.
    """

    name: str
    experiment: str
    solver: Callable[..., Any]
    kind: str
    bounds: Callable[..., Any]
    aliases: tuple[str, ...] = ()
    guarantee: str = ""
    theorem: str = ""
    baselines: tuple[str, ...] = ()
    description: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def all_names(self) -> tuple[str, ...]:
        """Every name this spec answers to (canonical name first)."""
        return (self.name, *self.aliases)

    def validate_params(
        self, params: Mapping[str, Any] | None, *, context: str | None = None
    ) -> dict[str, Any]:
        """Check ``params`` against the solver signature; returns a clean dict.

        ``context`` is the name to blame in error messages (defaults to the
        canonical name; the service passes the name the client actually
        used).  Raises :class:`UnknownParameterError` on any key the solver
        does not accept.
        """
        if params is None:
            return {}
        if not isinstance(params, MappingABC):
            raise RegistryError(
                f"'params' must be a mapping (JSON object), not {type(params).__name__}"
            )
        clean: dict[str, Any] = {}
        for key, value in params.items():
            if key not in self.params:
                raise UnknownParameterError(context or self.name, str(key), list(self.params))
            clean[str(key)] = value
        return clean

    def listing_payload(self) -> dict[str, Any]:
        """The JSON-ready listing entry for this algorithm.

        The single rendering used by both ``repro algorithms --json`` and
        the service's ``GET /algorithms`` route, so the two listings can
        never drift apart.
        """
        from ..backends.base import _jsonable

        return {
            "experiment": self.experiment,
            "kind": self.kind,
            "aliases": list(self.aliases),
            "guarantee": self.guarantee,
            "theorem": self.theorem,
            "params": _jsonable(dict(self.params)),
            "baselines": list(self.baselines),
            "description": self.description,
        }

    def build_point(
        self,
        *,
        params: Mapping[str, Any] | None = None,
        scenario: str | None = None,
        seed: int | tuple[int, ...] = 0,
        trials: int = 1,
    ) -> SweepPoint:
        """The :class:`~repro.backends.SweepPoint` one evaluation maps onto.

        This is the single place a point is ever constructed from an
        algorithm, so the cache-key identity (experiment name, solver path,
        kwargs, seed, trials) is defined exactly once for the library
        facade, the experiment drivers, the CLI, and the service.
        """
        kwargs = dict(self.validate_params(params))
        if scenario is not None:
            kwargs["scenario"] = scenario
        return SweepPoint(
            experiment=self.experiment,
            fn=self.solver,
            kwargs=kwargs,
            seed=seed,
            trials=max(1, int(trials)),
        )


#: Canonical name → spec, in registration order (which fixes the Figure-1
#: row order and therefore per-row seeds — append, never reorder).
_REGISTRY: dict[str, AlgorithmSpec] = {}

#: Every accepted name (canonical or alias) → canonical name.
_NAMES: dict[str, str] = {}

_POPULATED = False
_POPULATING = False


def _populate() -> None:
    """Import the modules whose decorators fill the registry (idempotent).

    The success flag is only set after the import completes, so a failed
    registration import surfaces its real error again on the next call
    instead of leaving a silently empty registry; the in-progress guard
    stops re-entry while the import is running.
    """
    global _POPULATED, _POPULATING
    if _POPULATED or _POPULATING:
        return
    _POPULATING = True
    try:
        from ..experiments import figure1  # noqa: F401  (registration side effect)

        _POPULATED = True
    finally:
        _POPULATING = False


def _check_solver_signature(fn: Callable[..., Any]) -> None:
    """The spec derives its parameters from the solver's signature, so the
    solver must take exactly one positional parameter (the trial RNG) and
    every tunable keyword-only, with no catch-all."""
    positional = 0
    for parameter in inspect.signature(fn).parameters.values():
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            raise RegistryError(f"solver {fn.__name__!r} takes *{parameter.name}")
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            raise RegistryError(
                f"solver {fn.__name__!r} takes **{parameter.name}, which hides "
                "its accepted parameters from the spec"
            )
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
    if positional != 1:
        raise RegistryError(
            f"solver {fn.__name__!r} takes {positional} positional parameters; it "
            "must take exactly one (the trial RNG) with every tunable keyword-only"
        )


def register_algorithm(
    name: str,
    *,
    kind: str,
    bounds: Callable[..., Any],
    experiment: str | None = None,
    aliases: tuple[str, ...] | list[str] = (),
    guarantee: str = "",
    theorem: str = "",
    baselines: tuple[str, ...] | list[str] = (),
    description: str | None = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class the decorated solver function into the algorithm registry.

    The decorator returns the function unchanged — registration attaches
    metadata *about* the solver without wrapping it, so its import path
    (the cache-key identity) and its pickling behaviour are untouched.
    A malformed registration raises :class:`RegistryError` when its
    module is imported: a non-``str`` name, an unknown ``kind``, no
    ``bounds`` hook, or a solver signature the spec cannot derive its
    parameters from.
    """
    if not isinstance(name, str):
        raise RegistryError(f"algorithm name must be a str, not {type(name).__name__}")
    if kind not in ("graph", "setcover"):
        raise RegistryError(f"kind must be 'graph' or 'setcover', not {kind!r}")
    if bounds is None:
        raise RegistryError(
            f"algorithm {name!r} has no bounds hook; every row needs its "
            "theorem bound for the guarantee check"
        )

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        _check_solver_signature(fn)
        doc = description
        if doc is None:
            docstring = inspect.getdoc(fn) or ""
            doc = docstring.splitlines()[0] if docstring else ""
        spec = AlgorithmSpec(
            name=name,
            experiment=experiment or name,
            solver=fn,
            kind=kind,
            aliases=tuple(aliases),
            guarantee=guarantee,
            theorem=theorem,
            bounds=bounds,
            baselines=tuple(baselines),
            description=doc,
            params=MappingProxyType(_solver_params(fn)),
        )
        for key in spec.all_names:
            owner = _NAMES.get(key)
            if owner is not None and owner != name:
                raise RegistryError(
                    f"algorithm name {key!r} is already registered by {owner!r}"
                )
        for other in _REGISTRY.values():
            # The experiment name is the cache-key identity and the
            # Figure-1 row key — two specs must never share one.
            if other.name != name and other.experiment == spec.experiment:
                raise RegistryError(
                    f"experiment {spec.experiment!r} is already registered by "
                    f"{other.name!r}"
                )
        _REGISTRY[name] = spec
        for key in spec.all_names:
            _NAMES[key] = name
        return fn

    return decorator


def get_algorithm(name: str) -> AlgorithmSpec:
    """Resolve a canonical name or alias to its spec.

    Raises :class:`UnknownAlgorithmError` (with the de-duplicated list of
    every accepted name) when nothing matches.
    """
    _populate()
    canonical = _NAMES.get(name)
    if canonical is None:
        raise UnknownAlgorithmError(name, known_algorithm_names())
    return _REGISTRY[canonical]


def iter_algorithms() -> Iterator[AlgorithmSpec]:
    """All registered specs, in registration (Figure-1 row) order."""
    _populate()
    return iter(list(_REGISTRY.values()))


def algorithm_names() -> list[str]:
    """Sorted canonical algorithm names."""
    _populate()
    return sorted(_REGISTRY)


def experiment_names() -> list[str]:
    """The experiment (Figure-1 row) names, in registration order."""
    _populate()
    return [spec.experiment for spec in _REGISTRY.values()]


def known_algorithm_names() -> list[str]:
    """Every accepted name — canonical and alias — sorted, de-duplicated."""
    _populate()
    return sorted(_NAMES)
