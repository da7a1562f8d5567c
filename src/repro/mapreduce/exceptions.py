"""Exception hierarchy for the MPC / MapReduce simulation substrate.

:class:`~repro.mapreduce.engine.MPCContext` is strict by design: a round
that declares more words than a machine's budget, or a round charged after
the run is finished, raises immediately rather than silently degrading, so
that the space bounds claimed in the paper (Figure 1) are *enforced* during
benchmarks rather than merely reported.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class MapReduceError(ReproError):
    """Base class for errors raised by the MapReduce simulation layer."""


class MemoryExceededError(MapReduceError):
    """A machine attempted to hold more words than its memory budget.

    Attributes
    ----------
    machine_id:
        Which budget was exceeded: ``"worker"`` or ``"central"``.
    requested:
        Number of words the machine attempted to hold.
    limit:
        The machine's memory budget in words.
    """

    def __init__(self, machine_id: object, requested: int, limit: int, context: str = ""):
        self.machine_id = machine_id
        self.requested = int(requested)
        self.limit = int(limit)
        self.context = context
        msg = (
            f"machine {machine_id!r} requires {self.requested} words "
            f"but has a budget of {self.limit} words"
        )
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class ProtocolError(MapReduceError):
    """The round protocol was violated (a round charged after ``finish``)."""


class AlgorithmFailureError(ReproError):
    """A randomized algorithm declared failure (a low-probability event).

    The paper's algorithms fail with probability ``exp(-poly(n))`` when a
    sampling step produces an oversized sample.  The simulator surfaces this
    as an exception so callers can retry with a fresh seed; the experiment
    harness records how often this occurs (it should essentially never).
    """


class InfeasibleInstanceError(ReproError):
    """The problem instance admits no feasible solution (e.g. uncoverable element)."""
