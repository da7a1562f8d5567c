"""Round orchestration and accounting for the simulated MPC model.

:class:`MPCContext` is the object the algorithm drivers program against.  It
does three things:

1. **Counts rounds.**  Every synchronous communication step — a parallel
   round, a gather onto the central machine, a broadcast down the machine
   tree — is recorded with a description and phase label, so an experiment
   can report "this run of Algorithm 1 used 7 rounds: 3 sampling rounds and
   4 broadcast rounds".

2. **Enforces space.**  Loads declared for a round are checked against the
   per-machine memory budget; the central machine's round input is checked
   against its budget.  Violations raise
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
:meth:`MPCContext.aggregate` model this: given a payload size and a fan-out,
they charge ``ceil(log_fanout(M))`` rounds (at least one) and verify that a
node of the tree never holds more than ``fanout × payload`` words.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from .cluster import Cluster
from .exceptions import MemoryExceededError, ProtocolError
from .metrics import RunMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import RoundExecutor

__all__ = ["MPCContext", "tree_rounds"]


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
    """Orchestrates rounds on a :class:`~repro.mapreduce.cluster.Cluster`.

    Parameters
    ----------
    cluster:
        The simulated cluster to account against.
    algorithm:
        Name recorded on the resulting :class:`RunMetrics`.
    default_fanout:
        Fan-out used for broadcast/aggregation trees when the caller does
        not specify one.  The paper uses ``n^µ``; drivers pass that value
        explicitly.
    strict:
        When ``True`` (default) memory violations raise; when ``False`` they
        are only recorded (useful for exploratory experiments that want to
        observe by how much a bound would be exceeded).
    executor:
        Where :meth:`map_round` physically runs a round's shard functions
        (see :mod:`repro.mapreduce.executor`).  ``None`` means in-process
        (:class:`~repro.mapreduce.executor.LocalRoundExecutor`); a
        :class:`~repro.mapreduce.executor.SweepRoundExecutor` with
        ``backend="distributed"`` executes rounds across real worker
        processes/hosts while this context keeps doing the accounting.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        algorithm: str = "",
        default_fanout: int = 2,
        strict: bool = True,
        executor: "RoundExecutor | None" = None,
    ):
        self.cluster = cluster
        self.metrics = RunMetrics(algorithm=algorithm)
        self.default_fanout = max(2, int(default_fanout))
        self.strict = strict
        self.executor = executor
        self._closed = False
        self._violations: list[str] = []

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    @property
    def num_machines(self) -> int:
        return self.cluster.num_machines

    @property
    def memory_per_machine(self) -> int | None:
        return self.cluster.memory_per_machine

    @property
    def violations(self) -> list[str]:
        """Human-readable descriptions of budget violations (non-strict mode)."""
        return list(self._violations)

    def _check_open(self) -> None:
        if self._closed:
            raise ProtocolError("MPCContext has been finished; no further rounds allowed")

    def _check_worker_load(self, words: int, context: str) -> None:
        limit = self.cluster.memory_per_machine
        if limit is not None and words > limit:
            if self.strict:
                raise MemoryExceededError("worker", words, limit, context=context)
            self._violations.append(f"worker load {words} > {limit} ({context})")

    def _check_central_load(self, words: int, context: str) -> None:
        limit = self.cluster.central_memory
        if limit is not None and words > limit:
            if self.strict:
                raise MemoryExceededError("central", words, limit, context=context)
            self._violations.append(f"central load {words} > {limit} ({context})")

    # ------------------------------------------------------------------ #
    # Round primitives
    # ------------------------------------------------------------------ #
    def parallel_round(
        self,
        description: str,
        *,
        phase: str = "",
        machine_loads: Sequence[int] | np.ndarray | int | None = None,
        words_communicated: int = 0,
        messages: int = 0,
    ) -> None:
        """Record one fully parallel round.

        ``machine_loads`` is either the per-machine word loads (checked
        individually), a single integer (interpreted as the maximum load), or
        ``None`` (the current live loads of the cluster's workers are used).
        """
        self._check_open()
        if machine_loads is None:
            loads = self.cluster.worker_loads()
            max_load = int(loads.max()) if loads.size else 0
        elif np.isscalar(machine_loads):
            max_load = int(machine_loads)  # type: ignore[arg-type]
        else:
            arr = np.asarray(machine_loads, dtype=np.int64)
            max_load = int(arr.max()) if arr.size else 0
        self._check_worker_load(max_load, description)
        self.metrics.record_round(
            description,
            phase,
            max_machine_words=max_load,
            central_words=self.cluster.central.words_used,
            words_communicated=int(words_communicated),
            messages=int(messages),
        )

    def map_round(
        self,
        shard_fn: Any,
        shards: Sequence[Any],
        description: str,
        *,
        phase: str = "",
        params: Mapping[str, Any] | None = None,
    ) -> list[Any]:
        """Execute one parallel round for real and account it.

        ``shard_fn`` (a module-level callable, or its import path) is
        applied to every entry of ``shards`` by this context's
        :class:`~repro.mapreduce.executor.RoundExecutor` — in-process by
        default, across worker processes/hosts with a
        :class:`~repro.mapreduce.executor.SweepRoundExecutor`.  The
        *measured* per-shard payload sizes (input + output words, as they
        crossed — or would cross — the wire) feed the usual
        :meth:`parallel_round` budget checks, so the simulator's
        load-violation accounting applies unchanged to real execution.
        Returns the shard outputs in shard order.
        """
        self._check_open()
        if self.executor is None:
            from .executor import LocalRoundExecutor

            self.executor = LocalRoundExecutor()
        results = self.executor.run_round(
            shard_fn, list(shards), round_name=description, params=params
        )
        loads = [result.input_words + result.output_words for result in results]
        self.parallel_round(
            description,
            phase=phase,
            machine_loads=loads,
            words_communicated=sum(result.output_words for result in results),
            messages=len(results),
        )
        return [result.output for result in results]

    def gather_to_central(
        self,
        input_words: int,
        description: str,
        *,
        phase: str = "",
        max_worker_send: int | None = None,
        messages: int | None = None,
    ) -> None:
        """Record a round in which workers send ``input_words`` words to the central machine.

        This is the "blue line" pattern of the paper: a bounded-size sample
        is shipped to a single machine that runs the sequential algorithm on
        it.  The central machine's budget is checked against
        ``input_words`` plus whatever state it already holds.
        """
        self._check_open()
        total_central = self.cluster.central.words_used + int(input_words)
        self._check_central_load(total_central, description)
        if max_worker_send is not None:
            self._check_worker_load(int(max_worker_send), description)
        self.metrics.record_round(
            description,
            phase,
            max_machine_words=int(max_worker_send or 0),
            central_words=total_central,
            words_communicated=int(input_words),
            messages=self.num_machines if messages is None else int(messages),
        )

    def broadcast(
        self,
        payload_words: int,
        description: str,
        *,
        phase: str = "",
        fanout: int | None = None,
    ) -> int:
        """Broadcast ``payload_words`` words from the central machine to all workers.

        Uses a tree of the given fan-out; returns the number of rounds
        charged.  Each internal node of the tree forwards the payload to
        ``fanout`` children, so it must hold ``payload × fanout`` words of
        outgoing messages plus the payload itself — this is the quantity
        checked against the worker budget (matching the paper's observation
        that sending ``C`` directly to all ``M`` machines could require
        ``|C|·M = Ω(n^{1+c−µ})`` words and therefore a tree is needed).
        """
        self._check_open()
        fanout = self.default_fanout if fanout is None else max(2, int(fanout))
        rounds = tree_rounds(self.num_machines, fanout)
        per_node = int(payload_words) * (fanout + 1)
        for i in range(rounds):
            reached = min(self.num_machines, fanout ** (i + 1))
            self._check_worker_load(per_node, f"{description} (tree level {i})")
            self.metrics.record_round(
                f"{description} [broadcast level {i + 1}/{rounds}]",
                phase,
                max_machine_words=per_node,
                central_words=self.cluster.central.words_used,
                words_communicated=int(payload_words) * reached,
                messages=reached,
            )
        return rounds

    def aggregate(
        self,
        per_machine_words: int,
        description: str,
        *,
        phase: str = "",
        fanout: int | None = None,
    ) -> int:
        """Aggregate a small summary (e.g. a count) from all workers to the central machine.

        The converse of :meth:`broadcast`: each tree node receives
        ``fanout`` child summaries of ``per_machine_words`` words, combines
        them, and forwards one summary upward.  Returns the rounds charged.
        """
        self._check_open()
        fanout = self.default_fanout if fanout is None else max(2, int(fanout))
        rounds = tree_rounds(self.num_machines, fanout)
        per_node = int(per_machine_words) * (fanout + 1)
        for i in range(rounds):
            senders = max(1, self.num_machines // max(1, fanout**i))
            self._check_worker_load(per_node, f"{description} (tree level {i})")
            self.metrics.record_round(
                f"{description} [aggregate level {i + 1}/{rounds}]",
                phase,
                max_machine_words=per_node,
                central_words=self.cluster.central.words_used + int(per_machine_words) * fanout,
                words_communicated=int(per_machine_words) * senders,
                messages=senders,
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
        if self._violations:
            self.metrics.notes["violations"] = list(self._violations)
        return self.metrics
