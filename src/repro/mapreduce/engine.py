"""Round orchestration and accounting for the simulated MPC model.

:class:`MPCContext` is the object the algorithm drivers program against.  It
does three things:

1. **Counts rounds.**  Every synchronous communication step — a parallel
   round, a gather onto the central machine, a broadcast down the machine
   tree — is recorded with a description and phase label, so an experiment
   can report "this run of Algorithm 1 used 7 rounds: 3 sampling rounds and
   4 broadcast rounds".

2. **Enforces space.**  The loads each round declares (or, for
   :meth:`MPCContext.map_round`, measures with :func:`words_of`) are
   checked against the per-machine memory budget, which the central
   machine shares.
   Exceeding it raises
   :class:`~repro.mapreduce.exceptions.MemoryExceededError`, which makes the
   space claims of Figure 1 *falsifiable* by the test-suite.

3. **Accounts communication.**  The number of words shipped between machines
   is accumulated per round, giving the auxiliary communication-cost metric
   reported by the benchmarks.

Broadcast / aggregation trees
-----------------------------

Several algorithms distribute the central machine's result ``C`` to all
machines via a broadcast tree of degree ``n^µ`` and depth ``c/µ``
(Theorem 2.4, Section 4.1).  :meth:`MPCContext.broadcast` and
:meth:`MPCContext.aggregate` model this: given a payload size, they charge
``ceil(log_fanout(M))`` rounds (at least one) for the context's fan-out and
verify that a node of the tree never holds more than ``fanout × payload``
words.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .exceptions import MemoryExceededError, ProtocolError
from .metrics import RunMetrics

__all__ = ["MPCContext", "tree_rounds", "words_of"]


def words_of(value: Any) -> int:
    """Estimate the number of machine words needed to store ``value``.

    The accounting follows the conventions of the MRC model:

    * ``None`` costs 0 words;
    * an integer, float, bool or string token costs 1 word;
    * a NumPy array costs its number of elements;
    * a list/tuple/set/frozenset costs the sum of its items' costs;
    * a dict costs the sum of key and value costs.

    The estimate is intentionally simple and deterministic — it is used for
    *model-level* space accounting, not for measuring Python's actual memory
    footprint.
    """
    if value is None:
        return 0
    if isinstance(value, (bool, int, float, np.integer, np.floating, str, bytes)):
        return 1
    if isinstance(value, np.ndarray):
        return int(value.size)
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(words_of(item) for item in value)
    if isinstance(value, Mapping):
        return sum(words_of(k) + words_of(v) for k, v in value.items())
    # Objects exposing their own accounting (e.g. Graph, SetCoverInstance).
    if hasattr(value, "word_count"):
        return int(value.word_count())
    # Fallback: one word.  Deliberately cheap so that small bookkeeping
    # objects do not dominate the accounting.
    return 1


def tree_rounds(num_machines: int, fanout: int) -> int:
    """Depth of a broadcast/aggregation tree over ``num_machines`` leaves.

    With fan-out ``f`` the tree reaches ``f^d`` machines after ``d`` rounds,
    so ``d = ceil(log_f M)``; a single machine still needs one round to
    receive the message.  The depth is found with integer multiplication:
    the float quotient ``log M / log f`` lands just above an integer at
    exact powers such as ``6^3 = 216`` and would charge one round too many.
    """
    if num_machines <= 0:
        raise ValueError("num_machines must be positive")
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    depth, reach = 1, fanout
    while reach < num_machines:
        depth += 1
        reach *= fanout
    return depth


class MPCContext:
    """Counts the rounds of one MPC run and checks them against its budget.

    Parameters
    ----------
    num_machines:
        Number of worker machines (``M`` in the paper); at least one.
    memory_per_machine:
        Word budget of every worker and of the central machine
        (``O(n^{1+µ})`` in most of the paper's theorems).  ``None`` disables
        enforcement.
    algorithm:
        Name recorded on the resulting :class:`RunMetrics`.
    default_fanout:
        Fan-out of every broadcast/aggregation tree of the run (at least
        2).  The paper uses ``n^µ``; the drivers pass that value.
    """

    def __init__(
        self,
        num_machines: int,
        memory_per_machine: int | None,
        *,
        algorithm: str = "",
        default_fanout: int = 2,
    ):
        if num_machines <= 0:
            raise ValueError("an MPC run needs at least one worker machine")
        self.num_machines = int(num_machines)
        self.memory_per_machine = (
            None if memory_per_machine is None else int(memory_per_machine)
        )
        self.metrics = RunMetrics(algorithm=algorithm)
        self.default_fanout = max(2, int(default_fanout))
        self._closed = False

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise ProtocolError("MPCContext has been finished; no further rounds allowed")

    def _check_load(self, machine: str, words: int, context: str) -> None:
        limit = self.memory_per_machine
        if limit is not None and words > limit:
            raise MemoryExceededError(machine, words, limit, context=context)

    # ------------------------------------------------------------------ #
    # Round primitives
    # ------------------------------------------------------------------ #
    def parallel_round(
        self,
        description: str,
        *,
        phase: str = "",
        machine_loads: Sequence[int] | np.ndarray | int,
        words_communicated: int = 0,
    ) -> None:
        """Record one fully parallel round.

        ``machine_loads`` is either the per-machine word loads or a single
        integer (the maximum load); the largest is checked against the
        budget.
        """
        self._check_open()
        loads = np.asarray(machine_loads, dtype=np.int64)
        max_load = int(loads.max()) if loads.size else 0
        self._check_load("worker", max_load, description)
        self.metrics.record_round(
            description,
            phase,
            max_machine_words=max_load,
            words_communicated=int(words_communicated),
        )

    def map_round(
        self,
        shard_fn: Callable[[Any], Any],
        shards: Sequence[Any],
        description: str,
        *,
        phase: str = "",
    ) -> list[Any]:
        """Run one parallel round in process and charge the data it moved.

        ``shard_fn`` is called on every entry of ``shards``, one shard per
        machine (an empty shard is still a machine).  Machine ``i`` is
        charged ``words_of(shards[i]) + words_of(output_i)`` against the
        budget, and the outputs are the round's communication, as in
        :meth:`parallel_round`.  Returns the outputs in shard order.
        """
        self._check_open()
        outputs = [shard_fn(shard) for shard in shards]
        self.parallel_round(
            description,
            phase=phase,
            machine_loads=[words_of(s) + words_of(o) for s, o in zip(shards, outputs)],
            words_communicated=sum(words_of(output) for output in outputs),
        )
        return outputs

    def gather_to_central(
        self,
        input_words: int,
        description: str,
        *,
        phase: str = "",
        max_worker_send: int | None = None,
    ) -> None:
        """Record a round in which workers send ``input_words`` words to the central machine.

        This is the "blue line" pattern of the paper: a bounded-size sample
        is shipped to a single machine that runs the sequential algorithm on
        it.  The central machine's budget is checked against
        ``input_words``, and a worker's against ``max_worker_send``.
        """
        self._check_open()
        self._check_load("central", int(input_words), description)
        if max_worker_send is not None:
            self._check_load("worker", int(max_worker_send), description)
        self.metrics.record_round(
            description,
            phase,
            max_machine_words=int(max_worker_send or 0),
            central_words=int(input_words),
            words_communicated=int(input_words),
        )

    def broadcast(
        self,
        payload_words: int,
        description: str,
        *,
        phase: str = "",
    ) -> int:
        """Broadcast ``payload_words`` words from the central machine to all workers.

        Uses a tree of the context's fan-out; returns the number of rounds
        charged.  Each internal node of the tree forwards the payload to
        ``fanout`` children, so it must hold ``payload × fanout`` words of
        outgoing messages plus the payload itself — this is the quantity
        checked against the worker budget (matching the paper's observation
        that sending ``C`` directly to all ``M`` machines could require
        ``|C|·M = Ω(n^{1+c−µ})`` words and therefore a tree is needed).
        """
        self._check_open()
        fanout = self.default_fanout
        rounds = tree_rounds(self.num_machines, fanout)
        per_node = int(payload_words) * (fanout + 1)
        for i in range(rounds):
            reached = min(self.num_machines, fanout ** (i + 1))
            self._check_load("worker", per_node, f"{description} (tree level {i})")
            self.metrics.record_round(
                f"{description} [broadcast level {i + 1}/{rounds}]",
                phase,
                max_machine_words=per_node,
                words_communicated=int(payload_words) * reached,
            )
        return rounds

    def aggregate(
        self,
        per_machine_words: int,
        description: str,
        *,
        phase: str = "",
    ) -> int:
        """Aggregate a small summary (e.g. a count) from all workers to the central machine.

        The converse of :meth:`broadcast`: each tree node receives
        ``fanout`` child summaries of ``per_machine_words`` words, combines
        them, and forwards one summary upward.  Returns the rounds charged.
        """
        self._check_open()
        fanout = self.default_fanout
        rounds = tree_rounds(self.num_machines, fanout)
        per_node = int(per_machine_words) * (fanout + 1)
        for i in range(rounds):
            senders = max(1, self.num_machines // max(1, fanout**i))
            self._check_load("worker", per_node, f"{description} (tree level {i})")
            self.metrics.record_round(
                f"{description} [aggregate level {i + 1}/{rounds}]",
                phase,
                max_machine_words=per_node,
                central_words=int(per_machine_words) * fanout,
                words_communicated=int(per_machine_words) * senders,
            )
        return rounds

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def finish(self, **notes: object) -> RunMetrics:
        """Close the context and return the collected :class:`RunMetrics`.

        Keyword arguments are stored in ``metrics.notes`` (e.g. the
        parameters ``n``, ``c``, ``µ`` of the run).
        """
        self._check_open()
        self._closed = True
        self.metrics.notes.update(notes)
        return self.metrics
