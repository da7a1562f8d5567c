"""MapReduce (MPC) drivers for the randomized local ratio algorithms.

Each driver runs the corresponding sequential algorithm, then charges each
iteration's rounds to :class:`~repro.mapreduce.engine.MPCContext` from the
algorithm's trace (:class:`~repro.core.results.IterationStats`).  The
input's per-machine loads follow the paper's placement rule; each sampling
iteration becomes a gather-to-central round, and the redistribution of the
central machine's results becomes either direct rounds (vertex cover,
matching — Theorems 2.4 / 5.6) or broadcast/aggregation trees of fan-out
``n^µ`` (general set cover).  The returned
:class:`~repro.mapreduce.metrics.RunMetrics` therefore holds the quantities
of Figure 1: number of rounds, maximum words per machine, and total
communication.

Memory budgets are enforced, not just measured: if a round declares more
space on a machine than its theorem allows (up to :data:`SPACE_SLACK`),
the driver raises :class:`~repro.mapreduce.exceptions.MemoryExceededError`
and the benchmark fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ...graphs.distributed import EDGE_WORDS, DistributedGraph
from ...graphs.graph import Graph
from ...mapreduce.engine import MPCContext
from ...mapreduce.metrics import RunMetrics
from ...setcover.instance import SetCoverInstance
from ..results import MatchingResult, SetCoverResult
from .b_matching import randomized_local_ratio_b_matching
from .matching import randomized_local_ratio_matching
from .set_cover import randomized_local_ratio_set_cover

__all__ = [
    "MPCParameters",
    "mpc_parameters_for_graph",
    "mpc_parameters_for_instance",
    "mpc_weighted_vertex_cover",
    "mpc_weighted_set_cover",
    "mpc_weighted_matching",
    "mpc_weighted_b_matching",
]

#: Constant-factor slack allowed on the theorems' space bounds.  The paper's
#: statements are O(·); the drivers enforce the bound up to this factor.
#: All ten ``mpc_*`` drivers read it when they run (the colouring and
#: hungry-greedy drivers through this module), so it has one value.
SPACE_SLACK = 16.0


@dataclass(frozen=True)
class MPCParameters:
    """Derived model parameters for one MPC run.

    Attributes
    ----------
    n:
        Problem-size parameter the space bound is expressed in (number of
        vertices / sets for graph problems, number of elements ``m`` for the
        greedy set cover algorithm).
    mu:
        Space exponent ``µ``.
    c:
        Densification exponent: input size is ``n^{1+c}``.
    eta:
        Sample budget ``η = n^{1+µ}``.
    num_machines:
        Number of worker machines ``M ≈ n^{c−µ}`` (at least 1).
    memory_per_machine:
        Enforced per-machine budget in words.
    fanout:
        Broadcast/aggregation tree fan-out (``n^µ``, at least 2).
    """

    n: int
    mu: float
    c: float
    eta: int
    num_machines: int
    memory_per_machine: int
    fanout: int


def mpc_parameters_for_graph(graph: Graph, mu: float) -> MPCParameters:
    """Compute the MPC parameters for a graph problem with space ``O(n^{1+µ})``."""
    n = max(2, graph.num_vertices)
    m = max(1, graph.num_edges)
    c = max(mu, np.log(m) / np.log(n) - 1.0)
    eta = max(1, int(round(n ** (1.0 + mu))))
    num_machines = max(1, int(np.ceil(m / eta)))
    memory = int(np.ceil(SPACE_SLACK * eta * EDGE_WORDS))
    fanout = max(2, int(round(n**mu)))
    return MPCParameters(n, mu, float(c), eta, num_machines, memory, fanout)


def mpc_parameters_for_instance(instance: SetCoverInstance, mu: float) -> MPCParameters:
    """MPC parameters for the ``f``-approximation: space ``O(f · n^{1+µ})`` per machine."""
    n = max(2, instance.num_sets)
    m = max(1, instance.num_elements)
    f = max(1, instance.frequency)
    c = max(mu, np.log(m) / np.log(n) - 1.0)
    eta = max(1, int(round(n ** (1.0 + mu))))
    num_machines = max(1, int(np.ceil(m / eta)))
    memory = int(np.ceil(SPACE_SLACK * f * eta))
    fanout = max(2, int(round(n**mu)))
    return MPCParameters(n, mu, float(c), eta, num_machines, memory, fanout)


# --------------------------------------------------------------------------- #
# Weighted set cover / vertex cover (Theorem 2.4)
# --------------------------------------------------------------------------- #
def _element_loads(instance: SetCoverInstance, params: MPCParameters) -> np.ndarray:
    """Per-machine word loads when elements are spread ``η`` per machine.

    Each element ``j`` stores its dual list ``T_j`` (``|T_j|`` words) plus an
    alive bit, on machine ``min(M − 1, j // η)``.
    """
    indptr, _ = instance.element_incidence()
    machine = np.minimum(
        params.num_machines - 1, np.arange(instance.num_elements) // params.eta
    )
    words = np.diff(indptr) + 1
    return np.bincount(machine, weights=words, minlength=params.num_machines).astype(np.int64)


def mpc_weighted_set_cover(
    instance: SetCoverInstance,
    mu: float,
    rng: np.random.Generator,
) -> tuple[SetCoverResult, RunMetrics]:
    """Theorem 2.4 (general ``f``): ``f``-approximate set cover in ``O((c/µ)²)`` rounds.

    The central machine's cover indices ``C`` are redistributed through a
    broadcast tree of degree ``n^µ`` and the new alive-count ``|U_{r+1}|`` is
    gathered back through the matching aggregation tree, so each sampling
    iteration costs ``O(c/µ)`` rounds.
    """
    params = mpc_parameters_for_instance(instance, mu)
    result = randomized_local_ratio_set_cover(instance, params.eta, rng)

    ctx = MPCContext(
        params.num_machines,
        params.memory_per_machine,
        algorithm="mpc-weighted-set-cover",
        default_fanout=params.fanout,
    )
    worker_loads = _element_loads(instance, params)
    cover_size = 0
    for stats in result.iterations:
        ctx.parallel_round(
            f"iteration {stats.iteration}: sample U' (|U_r|={stats.alive})",
            phase=f"iteration-{stats.iteration}",
            machine_loads=worker_loads,
        )
        ctx.gather_to_central(
            stats.sample_words + stats.sampled,
            f"iteration {stats.iteration}: local ratio on sample (|U'|={stats.sampled})",
            phase=f"iteration-{stats.iteration}",
            max_worker_send=int(worker_loads.max()) if worker_loads.size else 0,
        )
        cover_size += stats.selected
        ctx.broadcast(
            max(1, cover_size),
            f"iteration {stats.iteration}: broadcast C (|C|={cover_size})",
            phase=f"iteration-{stats.iteration}",
        )
        ctx.aggregate(
            1,
            f"iteration {stats.iteration}: compute |U_r+1|",
            phase=f"iteration-{stats.iteration}",
        )
    metrics = ctx.finish(
        n=instance.num_sets,
        m=instance.num_elements,
        f=instance.frequency,
        mu=mu,
        c=params.c,
        eta=params.eta,
        num_machines=params.num_machines,
        sampling_iterations=len(result.iterations),
        failed_attempts=result.failed_attempts,
    )
    return result, metrics


def mpc_weighted_vertex_cover(
    graph: Graph,
    vertex_weights: np.ndarray,
    mu: float,
    rng: np.random.Generator,
) -> tuple[SetCoverResult, RunMetrics]:
    """Theorem 2.4 (``f = 2``): 2-approximate weighted vertex cover in ``O(c/µ)`` rounds.

    Uses the improved redistribution of the ``f = 2`` case: the central
    machine sends one bit per vertex to the machine hosting it, vertices
    forward the bit to their incident edges, and per-machine alive counts are
    summed at the central machine — a constant number of rounds per
    iteration instead of a broadcast tree.
    """
    instance = SetCoverInstance.from_vertex_cover(graph, vertex_weights)
    params = mpc_parameters_for_instance(instance, mu)
    result = randomized_local_ratio_set_cover(instance, params.eta, rng)
    result.algorithm = "randomized-local-ratio-vertex-cover"

    ctx = MPCContext(
        params.num_machines,
        params.memory_per_machine,
        algorithm="mpc-weighted-vertex-cover",
        default_fanout=params.fanout,
    )
    dist = DistributedGraph(graph, params.num_machines, rng)
    worker_loads = dist.total_loads()
    for stats in result.iterations:
        phase = f"iteration-{stats.iteration}"
        ctx.parallel_round(
            f"iteration {stats.iteration}: sample edges (|U_r|={stats.alive})",
            phase=phase,
            machine_loads=worker_loads,
        )
        ctx.gather_to_central(
            stats.sample_words + stats.sampled,
            f"iteration {stats.iteration}: local ratio on sampled edges",
            phase=phase,
            max_worker_send=int(worker_loads.max()) if worker_loads.size else 0,
        )
        # f = 2 redistribution: one bit per vertex, then vertex → incident edges.
        ctx.parallel_round(
            f"iteration {stats.iteration}: notify vertices of C",
            phase=phase,
            machine_loads=worker_loads,
            words_communicated=graph.num_vertices,
        )
        ctx.parallel_round(
            f"iteration {stats.iteration}: vertices inform incident edges; count U_r+1",
            phase=phase,
            machine_loads=worker_loads,
            words_communicated=2 * graph.num_edges + params.num_machines,
        )
    metrics = ctx.finish(
        n=graph.num_vertices,
        m=graph.num_edges,
        f=2,
        mu=mu,
        c=params.c,
        eta=params.eta,
        num_machines=params.num_machines,
        sampling_iterations=len(result.iterations),
        failed_attempts=result.failed_attempts,
    )
    return result, metrics


# --------------------------------------------------------------------------- #
# Weighted matching (Theorem 5.6) and b-matching (Theorem D.3)
# --------------------------------------------------------------------------- #
def _replay_matching_rounds(
    ctx: MPCContext,
    dist: DistributedGraph,
    iterations,
    graph: Graph,
    num_machines: int,
) -> None:
    """Common round pattern for Algorithms 4 and 7 (Theorem 5.6's parallelization)."""
    worker_loads = dist.total_loads()
    max_worker = int(worker_loads.max()) if worker_loads.size else 0
    for stats in iterations:
        phase = f"iteration-{stats.iteration}"
        ctx.parallel_round(
            f"iteration {stats.iteration}: sample E'_v (|E_i|={stats.alive})",
            phase=phase,
            machine_loads=worker_loads,
        )
        ctx.gather_to_central(
            stats.sample_words,
            f"iteration {stats.iteration}: local ratio on samples "
            f"(Σ|E'_v|={stats.sampled}, pushed {stats.selected})",
            phase=phase,
            max_worker_send=max_worker,
        )
        ctx.parallel_round(
            f"iteration {stats.iteration}: send φ(v) and stack bits to vertices",
            phase=phase,
            machine_loads=worker_loads,
            words_communicated=graph.num_vertices + stats.selected,
        )
        ctx.parallel_round(
            f"iteration {stats.iteration}: vertices send φ to incident edges; compute |E_i+1|",
            phase=phase,
            machine_loads=worker_loads,
            words_communicated=2 * graph.num_edges + num_machines,
        )


def mpc_weighted_matching(
    graph: Graph,
    mu: float,
    rng: np.random.Generator,
    *,
    eta: int | None = None,
) -> tuple[MatchingResult, RunMetrics]:
    """Theorem 5.6: 2-approximate maximum weight matching.

    ``O(c/µ)`` rounds with ``η = n^{1+µ}``; passing ``mu = 0`` (so
    ``η = n``) gives the ``O(log n)``-round, ``O(n)``-space configuration of
    Theorem C.2.
    """
    params = mpc_parameters_for_graph(graph, mu)
    if eta is None:
        eta = params.eta
    result = randomized_local_ratio_matching(graph, eta, rng)

    ctx = MPCContext(
        params.num_machines,
        params.memory_per_machine,
        algorithm="mpc-weighted-matching",
        default_fanout=params.fanout,
    )
    dist = DistributedGraph(graph, params.num_machines, rng)
    _replay_matching_rounds(ctx, dist, result.iterations, graph, params.num_machines)
    ctx.gather_to_central(
        EDGE_WORDS * max(1, result.stack_size),
        f"unwind stack ({result.stack_size} edges) on central machine",
        phase="unwind",
    )
    metrics = ctx.finish(
        n=graph.num_vertices,
        m=graph.num_edges,
        mu=mu,
        c=params.c,
        eta=eta,
        num_machines=params.num_machines,
        sampling_iterations=len(result.iterations),
        failed_attempts=result.failed_attempts,
        stack_size=result.stack_size,
    )
    return result, metrics


def mpc_weighted_b_matching(
    graph: Graph,
    b,
    mu: float,
    rng: np.random.Generator,
    *,
    epsilon: float = 0.1,
) -> tuple[MatchingResult, RunMetrics]:
    """Theorem D.3: ``(3 − 2/b + 2ε)``-approximate maximum weight b-matching.

    The per-machine budget grows to ``O(b·log(1/ε)·n^{1+µ})`` words, exactly
    as stated in the theorem.
    """
    params = mpc_parameters_for_graph(graph, mu)
    b_max = int(np.max(b)) if not np.isscalar(b) else int(b)
    delta = epsilon / (1.0 + epsilon)
    budget_factor = max(1.0, b_max * np.log(1.0 / delta))
    memory = int(np.ceil(params.memory_per_machine * budget_factor))
    params = replace(params, memory_per_machine=memory)
    result = randomized_local_ratio_b_matching(graph, b, params.eta, rng, epsilon=epsilon)

    ctx = MPCContext(
        params.num_machines,
        params.memory_per_machine,
        algorithm="mpc-weighted-b-matching",
        default_fanout=params.fanout,
    )
    dist = DistributedGraph(graph, params.num_machines, rng)
    _replay_matching_rounds(ctx, dist, result.iterations, graph, params.num_machines)
    ctx.gather_to_central(
        EDGE_WORDS * max(1, result.stack_size),
        f"unwind stack ({result.stack_size} edges) on central machine",
        phase="unwind",
    )
    metrics = ctx.finish(
        n=graph.num_vertices,
        m=graph.num_edges,
        mu=mu,
        c=params.c,
        eta=params.eta,
        b=b_max,
        epsilon=epsilon,
        num_machines=params.num_machines,
        sampling_iterations=len(result.iterations),
        stack_size=result.stack_size,
    )
    return result, metrics
