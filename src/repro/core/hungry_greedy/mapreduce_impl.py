"""MapReduce (MPC) drivers for the hungry-greedy algorithms.

Each driver runs the corresponding sequential algorithm, then charges each
iteration's rounds to :class:`~repro.mapreduce.engine.MPCContext` from the
algorithm's trace (:class:`~repro.core.results.IterationStats`).  The
communication pattern shared by Algorithms 2, 6 and the maximal clique
algorithm (Theorems 3.3, A.3, Corollary B.1) is, per iteration:

1. a parallel round in which vertices determine their residual degree and the
   sampled groups are drawn;
2. a gather round shipping the sampled vertices *and their alive adjacency
   lists* to the central machine, which performs the greedy insertions;
3. a parallel round in which the central machine notifies each vertex whether
   it is now in ``N⁺(I)``;
4. a parallel round in which vertices query their neighbours to recompute
   residual degrees.

Algorithm 3 (greedy set cover, Theorem 4.6) additionally pays a broadcast
tree of fan-out ``m^µ`` to propagate the covered-element set ``C`` and an
aggregation tree to compute the class sizes ``|S_{k,i}|``, which is where
its extra ``log(n)/(µ log m)`` factor comes from.
"""

from __future__ import annotations

import numpy as np

from ...graphs.distributed import DistributedGraph
from ...graphs.graph import Graph
from ...mapreduce.engine import MPCContext
from ...mapreduce.metrics import RunMetrics
from ...setcover.instance import SetCoverInstance
from ..local_ratio import mapreduce_impl as local_ratio_mpc
from ..local_ratio.mapreduce_impl import MPCParameters, mpc_parameters_for_graph
from ..results import CliqueResult, IndependentSetResult, SetCoverResult
from .maximal_clique import hungry_greedy_maximal_clique
from .mis import hungry_greedy_mis
from .mis_improved import hungry_greedy_mis_improved
from .set_cover import hungry_greedy_set_cover

__all__ = [
    "mpc_maximal_independent_set",
    "mpc_maximal_independent_set_simple",
    "mpc_maximal_clique",
    "mpc_greedy_set_cover",
    "mpc_parameters_for_greedy_set_cover",
]


def _replay_hungry_greedy_rounds(
    ctx: MPCContext,
    worker_loads: np.ndarray,
    iterations,
    num_vertices: int,
    num_edges: int,
    num_machines: int,
) -> None:
    """Replay the four-round-per-iteration pattern described in the module docstring."""
    max_worker = int(worker_loads.max()) if worker_loads.size else 0
    for stats in iterations:
        phase = stats.phase or f"iteration-{stats.iteration}"
        ctx.parallel_round(
            f"sweep {stats.iteration}: sample groups ({stats.sampled} vertices, "
            f"{stats.alive} heavy)",
            phase=phase,
            machine_loads=worker_loads,
        )
        ctx.gather_to_central(
            stats.sample_words,
            f"sweep {stats.iteration}: central greedy insertions ({stats.selected} added)",
            phase=phase,
            max_worker_send=max_worker,
        )
        ctx.parallel_round(
            f"sweep {stats.iteration}: notify vertices of N+(I)",
            phase=phase,
            machine_loads=worker_loads,
            words_communicated=num_vertices,
        )
        ctx.parallel_round(
            f"sweep {stats.iteration}: neighbours exchange alive bits (update d_I)",
            phase=phase,
            machine_loads=worker_loads,
            words_communicated=2 * num_edges + num_machines,
        )


def mpc_maximal_independent_set(
    graph: Graph,
    mu: float,
    rng: np.random.Generator,
) -> tuple[IndependentSetResult, RunMetrics]:
    """Theorem A.3: maximal independent set in ``O(c/µ)`` rounds, ``O(n^{1+µ})`` space."""
    params = mpc_parameters_for_graph(graph, mu)
    result = hungry_greedy_mis_improved(graph, mu, rng)
    ctx = MPCContext(
        params.num_machines,
        params.memory_per_machine,
        algorithm="mpc-mis-improved",
        default_fanout=params.fanout,
    )
    dist = DistributedGraph(graph, params.num_machines, rng)
    _replay_hungry_greedy_rounds(
        ctx,
        dist.total_loads(),
        result.iterations,
        graph.num_vertices,
        graph.num_edges,
        params.num_machines,
    )
    metrics = ctx.finish(
        n=graph.num_vertices,
        m=graph.num_edges,
        mu=mu,
        c=params.c,
        eta=params.eta,
        num_machines=params.num_machines,
        sweeps=len(result.iterations),
    )
    return result, metrics


def mpc_maximal_independent_set_simple(
    graph: Graph,
    mu: float,
    rng: np.random.Generator,
) -> tuple[IndependentSetResult, RunMetrics]:
    """Theorem 3.3: the simpler phase-by-phase MIS in ``O(1/µ²)`` rounds."""
    params = mpc_parameters_for_graph(graph, mu)
    result = hungry_greedy_mis(graph, mu, rng)
    ctx = MPCContext(
        params.num_machines,
        params.memory_per_machine,
        algorithm="mpc-mis-simple",
        default_fanout=params.fanout,
    )
    dist = DistributedGraph(graph, params.num_machines, rng)
    _replay_hungry_greedy_rounds(
        ctx,
        dist.total_loads(),
        result.iterations,
        graph.num_vertices,
        graph.num_edges,
        params.num_machines,
    )
    metrics = ctx.finish(
        n=graph.num_vertices,
        m=graph.num_edges,
        mu=mu,
        c=params.c,
        eta=params.eta,
        num_machines=params.num_machines,
        sweeps=len(result.iterations),
    )
    return result, metrics


def mpc_maximal_clique(
    graph: Graph,
    mu: float,
    rng: np.random.Generator,
) -> tuple[CliqueResult, RunMetrics]:
    """Corollary B.1: maximal clique in ``O(1/µ)`` rounds via the relabelling scheme.

    One extra parallel round per sweep accounts for the relabelling step
    (the central machine distributes the permutation ``σ`` and the active
    count ``k``).
    """
    params = mpc_parameters_for_graph(graph, mu)
    result = hungry_greedy_maximal_clique(graph, mu, rng)
    ctx = MPCContext(
        params.num_machines,
        params.memory_per_machine,
        algorithm="mpc-maximal-clique",
        default_fanout=params.fanout,
    )
    dist = DistributedGraph(graph, params.num_machines, rng)
    worker_loads = dist.total_loads()
    max_worker = int(worker_loads.max()) if worker_loads.size else 0
    for stats in result.iterations:
        phase = stats.phase or f"sweep-{stats.iteration}"
        ctx.parallel_round(
            f"sweep {stats.iteration}: relabel active vertices (σ, k)",
            phase=phase,
            machine_loads=worker_loads,
            words_communicated=graph.num_vertices + 1,
        )
        ctx.parallel_round(
            f"sweep {stats.iteration}: sample heavy candidates ({stats.sampled})",
            phase=phase,
            machine_loads=worker_loads,
        )
        ctx.gather_to_central(
            stats.sample_words,
            f"sweep {stats.iteration}: central clique extension ({stats.selected} added)",
            phase=phase,
            max_worker_send=max_worker,
        )
        ctx.parallel_round(
            f"sweep {stats.iteration}: neighbours exchange candidate bits",
            phase=phase,
            machine_loads=worker_loads,
            words_communicated=2 * graph.num_edges + params.num_machines,
        )
    metrics = ctx.finish(
        n=graph.num_vertices,
        m=graph.num_edges,
        mu=mu,
        c=params.c,
        eta=params.eta,
        num_machines=params.num_machines,
        sweeps=len(result.iterations),
    )
    return result, metrics


# --------------------------------------------------------------------------- #
# Greedy set cover (Theorem 4.6)
# --------------------------------------------------------------------------- #
def mpc_parameters_for_greedy_set_cover(instance: SetCoverInstance, mu: float) -> MPCParameters:
    """MPC parameters for Algorithm 3: space ``O(m^{1+µ} log n)`` per machine."""
    m = max(2, instance.num_elements)
    n = max(2, instance.num_sets)
    total = max(1, instance.total_size)
    c = max(mu, np.log(total) / np.log(m) - 1.0)
    eta = max(1, int(round(m ** (1.0 + mu))))
    num_machines = max(1, int(np.ceil(total / eta)))
    memory = int(np.ceil(local_ratio_mpc.SPACE_SLACK * eta * max(1.0, np.log(n + 1))))
    fanout = max(2, int(round(m**mu)))
    return MPCParameters(m, mu, float(c), eta, num_machines, memory, fanout)


def mpc_greedy_set_cover(
    instance: SetCoverInstance,
    mu: float,
    rng: np.random.Generator,
    *,
    epsilon: float = 0.2,
) -> tuple[SetCoverResult, RunMetrics]:
    """Theorem 4.6: ``(1 + ε)·H_∆``-approximate set cover.

    Every inner iteration pays one sample/gather round, a broadcast tree to
    distribute the newly covered elements and an aggregation tree to compute
    the class sizes, each of depth ``O(log n / (µ log m))``.
    """
    params = mpc_parameters_for_greedy_set_cover(instance, mu)
    result = hungry_greedy_set_cover(instance, mu, rng, epsilon=epsilon)
    ctx = MPCContext(
        params.num_machines,
        params.memory_per_machine,
        algorithm="mpc-greedy-set-cover",
        default_fanout=params.fanout,
    )
    # Sets are dealt round-robin, ~η words per machine; a set stores its
    # elements plus an alive bit.
    machine_of = np.arange(instance.num_sets) % params.num_machines
    loads = np.bincount(
        machine_of, weights=instance.set_sizes + 1, minlength=params.num_machines
    ).astype(np.int64)
    covered_total = 0
    for stats in result.iterations:
        phase = stats.phase or f"iteration-{stats.iteration}"
        ctx.parallel_round(
            f"iteration {stats.iteration}: sample groups X_i,j ({stats.sampled} sets)",
            phase=phase,
            machine_loads=loads,
        )
        ctx.gather_to_central(
            stats.sample_words + stats.sampled,
            f"iteration {stats.iteration}: central ε-greedy selections ({stats.selected})",
            phase=phase,
            max_worker_send=int(loads.max()) if loads.size else 0,
        )
        covered_total = min(instance.num_elements, covered_total + stats.alive)
        ctx.broadcast(
            max(1, min(instance.num_elements, covered_total)),
            f"iteration {stats.iteration}: broadcast covered elements C",
            phase=phase,
        )
        ctx.aggregate(
            max(1, int(np.ceil(1.0 / max(mu / 8.0, 1e-9)))),
            f"iteration {stats.iteration}: aggregate class sizes |S_k,i|",
            phase=phase,
        )
    metrics = ctx.finish(
        n=instance.num_sets,
        m=instance.num_elements,
        delta=instance.max_set_size,
        mu=mu,
        c=params.c,
        epsilon=epsilon,
        eta=params.eta,
        num_machines=params.num_machines,
        inner_iterations=len(result.iterations),
    )
    return result, metrics
