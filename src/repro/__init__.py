"""repro — reproduction of "Greedy and Local Ratio Algorithms in the MapReduce Model".

Harvey, Liaw and Liu (SPAA 2018) develop two techniques for designing
constant-round MapReduce algorithms — *randomized local ratio* and
*hungry-greedy* — and instantiate them on weighted vertex cover, weighted
set cover, weighted (b-)matching, maximal independent set, maximal clique,
and ``(1 + o(1))∆`` vertex/edge colouring.

This package provides:

* :mod:`repro.mapreduce` — an instrumented MPC/MRC simulator that enforces
  per-machine space budgets and counts rounds and communication;
* :mod:`repro.graphs`, :mod:`repro.setcover` — workload substrates
  (representations, generators, certificate checkers);
* :mod:`repro.core` — the paper's algorithms, each with a sequential
  reference implementation and an MPC driver;
* :mod:`repro.baselines` — sequential and prior-work comparison algorithms
  (filtering, Luby, Chvátal greedy, Misra–Gries, exact solvers);
* :mod:`repro.analysis`, :mod:`repro.experiments` — theoretical bounds,
  approximation-ratio helpers, and the Figure-1 reproduction harness;
* :mod:`repro.registry` — the unified algorithm registry
  (:class:`~repro.registry.AlgorithmSpec`, the
  :func:`~repro.registry.register_algorithm` decorator) and the public
  :func:`repro.solve` facade, the single dispatch path the experiment
  drivers, the CLI and the HTTP service all resolve algorithms through
  (``docs/API.md``);
* :mod:`repro.backends` — pluggable execution backends (serial,
  multiprocessing, batch) plus a disk result-cache, behind the single
  :func:`repro.backends.run_sweep` entry point;
* :mod:`repro.kernels` — the algorithm hot paths: vectorized NumPy
  kernels where that pays, byte-identical to the retained pure-Python
  references, and plain loops elsewhere (``docs/PERFORMANCE.md``), timed
  per kernel by ``perfbench/``;
* :mod:`repro.datasets` — real-dataset ingestion (SNAP/Matrix
  Market/DIMACS/set-cover text), the ``.npz`` instance store, and the
  named workload scenario registry behind every ``--scenario`` flag
  (``docs/DATASETS.md``);
* :mod:`repro.service` — the batched solver service behind ``repro
  serve``: a stdlib-only asyncio HTTP server that micro-batches concurrent
  JSON solve requests through :func:`repro.backends.run_sweep` and answers
  byte-identically to a direct library call (``docs/SERVICE.md``).

Quickstart
----------

The one-call path — solve a problem instance through the algorithm
registry (same result, byte-for-byte, as the CLI and the HTTP service):

>>> import repro
>>> result = repro.solve("matching", params={"n": 80, "mu": 0.25}, seed=7)
>>> result.valid and result.metrics["weight"] > 0
True

The underlying building blocks remain available directly:

>>> import numpy as np
>>> from repro import densified_graph, mpc_weighted_matching, is_matching
>>> rng = np.random.default_rng(0)
>>> graph = densified_graph(100, 0.4, rng, weights="uniform")
>>> result, metrics = mpc_weighted_matching(graph, mu=0.25, rng=rng)
>>> assert is_matching(graph, result.edge_ids)
>>> metrics.num_rounds > 0 and result.weight > 0
True
"""

from . import (
    analysis,
    backends,
    baselines,
    core,
    datasets,
    experiments,
    graphs,
    kernels,
    mapreduce,
    registry,
    service,
    setcover,
)
from ._version import __version__
from .registry import (
    AlgorithmSpec,
    SolveRequest,
    SolveResult,
    algorithm_names,
    get_algorithm,
    iter_algorithms,
    register_algorithm,
    solve,
)
from .backends import (
    BatchBackend,
    MultiprocessingBackend,
    ResultCache,
    SerialBackend,
    SweepPoint,
    run_sweep,
)
from .datasets import (
    Scenario,
    build_scenario,
    load_dataset,
    load_file,
    resolve_scenario,
    save_dataset,
    scenario_names,
)
from .baselines import (
    exact_matching,
    filtering_unweighted_matching,
    filtering_vertex_cover,
    greedy_colouring,
    greedy_matching,
    greedy_set_cover,
    luby_mis,
    misra_gries_edge_colouring,
)
from .core.colouring import (
    mapreduce_edge_colouring,
    mapreduce_vertex_colouring,
    mpc_edge_colouring,
    mpc_vertex_colouring,
)
from .core.hungry_greedy import (
    hungry_greedy_maximal_clique,
    hungry_greedy_mis,
    hungry_greedy_mis_improved,
    hungry_greedy_set_cover,
    mpc_greedy_set_cover,
    mpc_maximal_clique,
    mpc_maximal_independent_set,
    mpc_maximal_independent_set_simple,
)
from .core.local_ratio import (
    local_ratio_b_matching,
    local_ratio_matching,
    local_ratio_set_cover,
    local_ratio_vertex_cover,
    mpc_weighted_b_matching,
    mpc_weighted_matching,
    mpc_weighted_set_cover,
    mpc_weighted_vertex_cover,
    randomized_local_ratio_b_matching,
    randomized_local_ratio_matching,
    randomized_local_ratio_set_cover,
    randomized_local_ratio_vertex_cover,
)
from .core.results import (
    CliqueResult,
    ColouringResult,
    IndependentSetResult,
    IterationStats,
    MatchingResult,
    SetCoverResult,
)
from .graphs import (
    Graph,
    densified_graph,
    gnm_graph,
    is_b_matching,
    is_matching,
    is_maximal_clique,
    is_maximal_independent_set,
    is_proper_edge_colouring,
    is_proper_vertex_colouring,
    is_vertex_cover,
    power_law_graph,
)
from .mapreduce import MPCContext, RunMetrics
from .setcover import (
    SetCoverInstance,
    is_cover,
    random_coverage_instance,
    random_frequency_bounded_instance,
)

__all__ = [
    "__version__",
    # subpackages
    "backends",
    "datasets",
    "mapreduce",
    "graphs",
    "setcover",
    "core",
    "baselines",
    "analysis",
    "experiments",
    "registry",
    "service",
    # the solve facade + algorithm registry
    "solve",
    "SolveRequest",
    "SolveResult",
    "AlgorithmSpec",
    "algorithm_names",
    "get_algorithm",
    "iter_algorithms",
    "register_algorithm",
    # datasets & scenarios
    "Scenario",
    "build_scenario",
    "load_dataset",
    "load_file",
    "resolve_scenario",
    "save_dataset",
    "scenario_names",
    # execution backends
    "SweepPoint",
    "SerialBackend",
    "MultiprocessingBackend",
    "BatchBackend",
    "ResultCache",
    "run_sweep",
    # substrates
    "Graph",
    "SetCoverInstance",
    "MPCContext",
    "RunMetrics",
    "gnm_graph",
    "densified_graph",
    "power_law_graph",
    "random_frequency_bounded_instance",
    "random_coverage_instance",
    # results
    "IterationStats",
    "SetCoverResult",
    "MatchingResult",
    "IndependentSetResult",
    "CliqueResult",
    "ColouringResult",
    # core algorithms (sequential + randomized + MPC drivers)
    "local_ratio_set_cover",
    "local_ratio_vertex_cover",
    "local_ratio_matching",
    "local_ratio_b_matching",
    "randomized_local_ratio_set_cover",
    "randomized_local_ratio_vertex_cover",
    "randomized_local_ratio_matching",
    "randomized_local_ratio_b_matching",
    "hungry_greedy_mis",
    "hungry_greedy_mis_improved",
    "hungry_greedy_maximal_clique",
    "hungry_greedy_set_cover",
    "mapreduce_vertex_colouring",
    "mapreduce_edge_colouring",
    "mpc_weighted_set_cover",
    "mpc_weighted_vertex_cover",
    "mpc_weighted_matching",
    "mpc_weighted_b_matching",
    "mpc_maximal_independent_set",
    "mpc_maximal_independent_set_simple",
    "mpc_maximal_clique",
    "mpc_greedy_set_cover",
    "mpc_vertex_colouring",
    "mpc_edge_colouring",
    # baselines
    "greedy_set_cover",
    "greedy_matching",
    "exact_matching",
    "luby_mis",
    "filtering_unweighted_matching",
    "filtering_vertex_cover",
    "greedy_colouring",
    "misra_gries_edge_colouring",
    # validators
    "is_vertex_cover",
    "is_matching",
    "is_b_matching",
    "is_maximal_independent_set",
    "is_maximal_clique",
    "is_proper_vertex_colouring",
    "is_proper_edge_colouring",
    "is_cover",
]
