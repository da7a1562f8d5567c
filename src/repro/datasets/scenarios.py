"""Named workload scenarios: one string that resolves to a full workload.

A *scenario* answers "what input should this experiment run on?" with a
single spec string, so every driver (`figure1`, `experiment`, `ablation`)
and the CLI can be pointed at any workload without new code:

* **named scenarios** (``"social-sparse"``, ``"powerlaw-dense"``,
  ``"bipartite-b-matching"``, ``"coverage-planning"``) resolve to a
  generator configuration.  They build deterministically from the RNG they
  are handed;
* **file scenarios** (``file:<path>``) resolve to a dataset on disk — a
  stored ``.npz`` instance (:mod:`repro.datasets.store`) or any raw format
  :mod:`repro.datasets.ingest` can parse.  They have a fixed size and
  ignore the RNG.

Scenario specs are plain strings, so they travel inside
:class:`~repro.backends.SweepPoint` kwargs: sweeps over scenarios get
multiprocessing and result-caching from :mod:`repro.backends` for free.
To make a point's cache signature track the *content* of a file scenario
(not just its path), sweep drivers pass specs through
:func:`canonical_scenario_spec`, which pins a ``#sha256=<fingerprint>``
fragment onto ``file:`` specs.  Re-converting a dataset at the same path
changes the fingerprint — and therefore the cache key — and resolving a
pinned spec against a file whose content no longer matches fails loudly
instead of computing on the wrong data.

File scenarios are loaded through a small stat-invalidated cache, so the
many resolutions a sweep performs (validation, row selection, one per
point) parse each dataset once per process rather than once per use.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..graphs.generators import (
    edge_count_for_exponent,
    power_law_graph,
    random_bipartite_graph,
    with_random_weights,
)
from ..graphs.graph import Graph
from ..setcover.generators import random_coverage_instance
from ..setcover.instance import SetCoverInstance
from .ingest import load_file

__all__ = [
    "SCENARIOS",
    "InstanceCache",
    "Scenario",
    "build_scenario",
    "canonical_scenario_spec",
    "ensure_edge_weights",
    "file_fingerprint",
    "instance_cache_stats",
    "register_scenario",
    "resolve_scenario",
    "scenario_names",
    "scenario_params",
]

#: Prefix marking file-backed scenario specs.
FILE_PREFIX = "file:"

#: Fragment marker pinning a file scenario to a content fingerprint.
_FINGERPRINT_MARKER = "#sha256="


@dataclass(frozen=True)
class Scenario:
    """A named workload: a kind and a builder."""

    name: str
    kind: str  # "graph" | "setcover"
    description: str
    build: Callable[[np.random.Generator], Any] = field(repr=False)
    source: str = "generator"

    def __post_init__(self) -> None:
        if self.kind not in ("graph", "setcover"):
            raise ValueError(f"scenario kind must be 'graph' or 'setcover', not {self.kind!r}")


# --------------------------------------------------------------------------- #
# The built-in registry
# --------------------------------------------------------------------------- #
def _social_sparse(rng: np.random.Generator) -> Graph:
    # Sparse social-network shape: heavy-tailed degrees, c ≈ 0.12 (the low
    # end of the densification exponents Leskovec et al. report).
    return power_law_graph(300, edge_count_for_exponent(300, 0.12), rng, exponent=2.3)


def _powerlaw_dense(rng: np.random.Generator) -> Graph:
    # Dense power-law shape: c ≈ 0.45, flatter tail (hub-dominated).
    return power_law_graph(180, edge_count_for_exponent(180, 0.45), rng, exponent=2.1)


def _bipartite_b_matching(rng: np.random.Generator) -> Graph:
    # Assignment-style workload for the (b-)matching experiments: two sides
    # of 80, weighted edges, m = n^{1.3} capped at the bipartite maximum.
    m = min(edge_count_for_exponent(160, 0.3), 80 * 80)
    return random_bipartite_graph(80, 80, m, rng, weights="uniform")


def _coverage_planning(rng: np.random.Generator) -> SetCoverInstance:
    # Facility/coverage planning shape for the greedy regime (m ≪ n): 220
    # candidate sites, 55 demand points, weighted sites.
    return random_coverage_instance(220, 55, rng, density=0.08)


SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, *, overwrite: bool = False) -> Scenario:
    """Add a scenario to the registry (used by tests and downstream code)."""
    if not overwrite and scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    if scenario.name.startswith(FILE_PREFIX):
        raise ValueError(f"scenario names must not start with {FILE_PREFIX!r}")
    SCENARIOS[scenario.name] = scenario
    return scenario


register_scenario(
    Scenario(
        name="social-sparse",
        kind="graph",
        description="sparse power-law social graph (c≈0.12, tail exponent 2.3)",
        build=_social_sparse,
    )
)
register_scenario(
    Scenario(
        name="powerlaw-dense",
        kind="graph",
        description="dense power-law graph (c≈0.45, hub-dominated tail 2.1)",
        build=_powerlaw_dense,
    )
)
register_scenario(
    Scenario(
        name="bipartite-b-matching",
        kind="graph",
        description="weighted bipartite assignment graph (m=n^1.3, two equal sides)",
        build=_bipartite_b_matching,
    )
)
register_scenario(
    Scenario(
        name="coverage-planning",
        kind="setcover",
        description="coverage-planning set cover (m≪n, density 0.08, weighted sites)",
        build=_coverage_planning,
    )
)


def scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIOS)


# --------------------------------------------------------------------------- #
# Resolution
# --------------------------------------------------------------------------- #
def file_fingerprint(path: str | os.PathLike[str]) -> str:
    """Short content fingerprint of a dataset file (leading sha256 hex)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def _split_file_spec(spec: str) -> tuple[str, str | None]:
    """Split ``file:<path>[#sha256=<fp>]`` into the path and pinned fingerprint."""
    body = spec[len(FILE_PREFIX) :]
    if _FINGERPRINT_MARKER in body:
        path, _, pinned = body.rpartition(_FINGERPRINT_MARKER)
        return path, pinned
    return body, None


class InstanceCache:
    """Stat-invalidated LRU of materialized file-scenario workloads.

    Maps ``abspath → ((mtime_ns, size), fingerprint, object, ingest info)``.
    A hit (same path, unchanged stat stamp) returns the already-materialized
    :class:`~repro.graphs.graph.Graph` / ``SetCoverInstance`` and refreshes
    its recency; a miss re-fingerprints and re-ingests the file.  Hit/miss
    counters feed the solver service's ``/metrics`` endpoint.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("instance cache capacity must be at least 1")
        self.capacity = int(capacity)
        self._entries: dict[str, tuple[tuple[int, int], str, Any, dict[str, Any]]] = {}
        self.hits = 0
        self.misses = 0
        # The solver service reads this cache from the event-loop thread
        # (request validation) while sweep execution reads it from a worker
        # thread, so every access to the shared dict takes the lock.  The
        # lock is *not* held across fingerprinting/ingestion — two threads
        # missing on the same file may both load it, which is idempotent.
        self._lock = threading.Lock()

    def load(self, path: str) -> tuple[str, Any, dict[str, Any]]:
        """Load (or reuse) a dataset file; returns (fingerprint, obj, info)."""
        key = os.path.abspath(path)
        try:
            stat = os.stat(key)
        except OSError as exc:
            raise ValueError(f"cannot read dataset file {path!r}: {exc}") from exc
        stamp = (stat.st_mtime_ns, stat.st_size)
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None and hit[0] == stamp:
                self.hits += 1
                # Refresh recency: dicts preserve insertion order, so
                # re-inserting moves the entry to the back of the queue.
                self._entries[key] = self._entries.pop(key)
                return hit[1], hit[2], hit[3]
            self.misses += 1
        fingerprint = file_fingerprint(key)
        obj, info = load_file(key)
        with self._lock:
            self._entries.pop(key, None)
            while len(self._entries) >= self.capacity:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = (stamp, fingerprint, obj, info)
        return fingerprint, obj, info

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, Any]:
        """Hit/miss counters and occupancy (surfaced by ``/metrics``).

        The process-wide instance is shared by every service and library
        caller in the process, so these counters describe process-wide
        traffic, not one server's.
        """
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-wide cache of loaded file scenarios; its capacity is the default 64.
_FILE_CACHE = InstanceCache()


def instance_cache_stats() -> dict[str, Any]:
    """Hit/miss statistics of the process-wide file-scenario LRU."""
    return _FILE_CACHE.stats()


def _load_file_scenario(path: str) -> tuple[str, Any, dict[str, Any]]:
    """Load (or reuse) a file scenario's dataset; returns (fingerprint, obj, info)."""
    return _FILE_CACHE.load(path)


def resolve_scenario(spec: str) -> Scenario:
    """Resolve a scenario spec (a registry name or ``file:<path>``).

    File scenarios load the dataset at resolution time (through a small
    stat-invalidated cache); their ``build`` ignores the RNG — the
    workload is exactly what is on disk.  A spec carrying a pinned
    ``#sha256=<fingerprint>`` fragment (see
    :func:`canonical_scenario_spec`) is checked against the file's actual
    content and mismatches fail loudly.
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"scenario spec must be a non-empty string, not {spec!r}")
    if spec.startswith(FILE_PREFIX):
        path, pinned = _split_file_spec(spec)
        if not path:
            raise ValueError("file scenario is missing its path (use 'file:<path>')")
        fingerprint, obj, info = _load_file_scenario(path)
        if pinned is not None and pinned != fingerprint:
            raise ValueError(
                f"dataset file {path!r} no longer matches this scenario spec "
                f"(content fingerprint {fingerprint}, spec pins {pinned}); "
                "re-run with the bare 'file:' spec to use the current file"
            )
        kind = "graph" if isinstance(obj, Graph) else "setcover"
        return Scenario(
            name=spec,
            kind=kind,
            description=f"dataset file {path} ({info.get('format', '?')})",
            build=lambda rng, _obj=obj: _obj,
            source=spec,
        )
    if spec not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {spec!r}; choose one of {scenario_names()} "
            f"or a dataset via 'file:<path>'"
        )
    return SCENARIOS[spec]


def canonical_scenario_spec(spec: str) -> str:
    """Pin a ``file:`` spec to its current content fingerprint.

    Sweep drivers call this before putting a spec into point kwargs, so a
    point's cache signature tracks the dataset's *content*: re-converting
    a file at the same path changes the fingerprint, which changes the
    cache key — stale cached results cannot be replayed silently.  Named
    scenarios (and already-pinned specs) pass through unchanged.
    """
    if not spec.startswith(FILE_PREFIX):
        return spec
    path, pinned = _split_file_spec(spec)
    if pinned is not None:
        return spec
    fingerprint, _, _ = _load_file_scenario(path)
    return f"{FILE_PREFIX}{path}{_FINGERPRINT_MARKER}{fingerprint}"


def scenario_params(spec: str | None) -> dict[str, Any]:
    """The parameter entry scenario-driven experiment records carry."""
    return {} if spec is None else {"scenario": spec}


def _check_kind(scenario: Scenario, expect: str | None, context: str | None) -> None:
    if expect is not None and scenario.kind != expect:
        what = {"graph": "a graph", "setcover": "a set cover instance"}
        where = f" but {context} needs {what[expect]}" if context else f"; expected {expect}"
        raise ValueError(
            f"scenario {scenario.name!r} provides {what[scenario.kind]}{where}"
        )


def build_scenario(
    spec: str,
    rng: np.random.Generator,
    *,
    expect: str | None = None,
    context: str | None = None,
) -> Graph | SetCoverInstance:
    """Resolve ``spec`` and build its workload from ``rng``.

    ``expect`` (``"graph"`` or ``"setcover"``) asserts the workload kind;
    ``context`` names the caller in the error message.
    """
    scenario = resolve_scenario(spec)
    _check_kind(scenario, expect, context)
    return scenario.build(rng)


def ensure_edge_weights(
    graph: Graph,
    rng: np.random.Generator,
    *,
    distribution: str = "uniform",
    weight_range: tuple[float, float] = (1.0, 100.0),
) -> Graph:
    """Give an unweighted scenario graph random edge weights.

    Weighted experiments (matching, b-matching) call this on scenario
    workloads: a graph whose weights are all 1.0 (the "unweighted" marker)
    gets fresh weights drawn from ``rng``; a graph that carries real
    weights (e.g. from a weighted dataset file) is returned untouched.
    """
    if graph.num_edges and np.all(graph.weights == 1.0):
        return with_random_weights(
            graph, rng, distribution=distribution, weight_range=weight_range
        )
    return graph
