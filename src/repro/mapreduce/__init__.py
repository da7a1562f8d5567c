"""Simulated MapReduce / MPC substrate.

This subpackage implements the computational model the paper's algorithms
are analysed in (Karloff–Suri–Vassilvitskii MRC, and the MPC refinement of
Beame et al.): machines with sublinear memory, synchronous rounds, and
all-to-all communication bounded by the machines' memory.

One object, :class:`MPCContext`, is the whole substrate.  Drivers charge it
each round with the loads the round declares; it *enforces* the model's
constraint (the per-machine word budget) and *measures* the model's costs
(rounds, per-machine space, communication volume), which are exactly the
quantities tabulated in Figure 1 of the paper.
"""

from .engine import MPCContext, tree_rounds, words_of
from .executor import (
    LocalRoundExecutor,
    RoundExecutor,
    ShardResult,
    SweepRoundExecutor,
    distributed_degree_count,
    edge_degree_shard,
    execute_round_shard,
)
from .exceptions import (
    AlgorithmFailureError,
    InfeasibleInstanceError,
    MapReduceError,
    MemoryExceededError,
    ProtocolError,
    ReproError,
)
from .metrics import RoundRecord, RunMetrics
from .partition import balanced_partition, random_partition

__all__ = [
    "MPCContext",
    "tree_rounds",
    "words_of",
    "RoundExecutor",
    "LocalRoundExecutor",
    "SweepRoundExecutor",
    "ShardResult",
    "execute_round_shard",
    "edge_degree_shard",
    "distributed_degree_count",
    "RoundRecord",
    "RunMetrics",
    "balanced_partition",
    "random_partition",
    "ReproError",
    "MapReduceError",
    "MemoryExceededError",
    "ProtocolError",
    "AlgorithmFailureError",
    "InfeasibleInstanceError",
]
