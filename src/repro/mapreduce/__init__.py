"""Simulated MapReduce / MPC substrate.

This subpackage implements the computational model the paper's algorithms
are analysed in (Karloff–Suri–Vassilvitskii MRC, and the MPC refinement of
Beame et al.): machines with sublinear memory, synchronous rounds, and
all-to-all communication bounded by the machines' memory.

One object, :class:`MPCContext`, is the whole substrate.  Drivers charge it
each round through four primitives (``parallel_round``,
``gather_to_central``, ``broadcast``, ``aggregate``) with the loads the
round declares, or run a round in process with ``map_round``, which
measures each machine's shard and output with :func:`words_of`.  The
context *enforces* the model's constraint (the per-machine word budget)
and *measures* the model's costs (rounds, per-machine space,
communication volume), which are exactly the quantities tabulated in
Figure 1 of the paper.
"""

from .engine import MPCContext, tree_rounds, words_of
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
