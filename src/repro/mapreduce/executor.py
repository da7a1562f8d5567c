"""Pluggable round executors: run MPC rounds for real, not just on paper.

The simulator's :class:`~repro.mapreduce.engine.MPCContext` *accounts*
rounds; this module makes a round's machine-local work actually execute
somewhere — in-process, across local processes, or across hosts — while
keeping that accounting intact.

A round is expressed as a module-level **shard function** applied
independently to every machine's shard::

    def degree_shard(shard, **params):          # one machine's work
        ...
        return json_able_output

:meth:`MPCContext.map_round` hands ``(shard_fn, shards)`` to its
:class:`RoundExecutor`:

* :class:`LocalRoundExecutor` (the default) runs every shard in-process —
  the simulator's behaviour, now with *measured* payload sizes.
* :class:`SweepRoundExecutor` wraps each shard in a
  :class:`~repro.backends.SweepPoint` (experiment name ``mpc:<round>``)
  and routes the batch through :func:`~repro.backends.run_sweep` — so a
  round executes on whatever backend sweeps do, including
  ``backend="distributed"`` across real worker processes and hosts.

Both executors funnel through the same :func:`execute_round_shard`
function and canonical-JSON normalisation, so a round's outputs are
byte-identical no matter where its shards ran.  Shard inputs/outputs are
measured with :func:`~repro.distributed.protocol.payload_words` — the
wire-level counterpart of the model-level
:func:`~repro.mapreduce.engine.words_of` — and those measurements flow
into :class:`~repro.mapreduce.engine.MPCContext`'s per-machine budget
check, so a round that runs for real is held to the same budget as one
a driver declares.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..backends import Backend, ResultCache, SweepPoint, run_sweep
from ..distributed.protocol import callable_path, payload_words, resolve_callable

__all__ = [
    "LocalRoundExecutor",
    "RoundExecutor",
    "ShardResult",
    "SweepRoundExecutor",
    "distributed_degree_count",
    "edge_degree_shard",
    "execute_round_shard",
]


@dataclass
class ShardResult:
    """One shard's outcome: its output plus measured payload sizes (words)."""

    output: Any
    input_words: int
    output_words: int

    @classmethod
    def from_record(cls, record: Any) -> "ShardResult":
        return cls(
            output=record.notes["output"],
            input_words=int(record.metrics["input_words"]),
            output_words=int(record.metrics["output_words"]),
        )


def _normalize(value: Any) -> Any:
    """Canonical-JSON round-trip: what the value looks like after the wire.

    Applying this in *every* executor (local included) is what makes round
    outputs independent of where the shard ran — tuples become lists and
    dict keys become strings before any caller sees them.
    """
    return json.loads(
        json.dumps(value, sort_keys=True, allow_nan=False)
    )


def execute_round_shard(
    rng: Any, *, shard_fn: str, shard: Any, params: dict[str, Any] | None = None
) -> Any:
    """Run one machine's share of a round (the shipped sweep function).

    ``shard_fn`` is an import path (see
    :func:`~repro.distributed.protocol.resolve_callable`); the ``rng``
    argument is the sweep harness's trial generator and is deliberately
    unused — a round shard must be a deterministic function of its shard,
    or replicas could disagree.  Returns an
    :class:`~repro.experiments.harness.ExperimentRecord` (imported lazily:
    the experiments package imports this one).
    """
    del rng
    from ..experiments.harness import ExperimentRecord

    fn = resolve_callable(shard_fn)
    output = _normalize(fn(shard, **dict(params or {})))
    return ExperimentRecord(
        experiment="mpc-round-shard",
        parameters={"shard_fn": shard_fn},
        metrics={
            "input_words": float(payload_words(shard)),
            "output_words": float(payload_words(output)),
        },
        notes={"output": output},
    )


class RoundExecutor(abc.ABC):
    """Strategy for where a round's shard functions physically run."""

    @abc.abstractmethod
    def run_round(
        self,
        shard_fn: Callable[..., Any] | str,
        shards: Sequence[Any],
        *,
        round_name: str,
        params: Mapping[str, Any] | None = None,
    ) -> list[ShardResult]:
        """Apply ``shard_fn`` to every shard; one result per shard, in order."""


def _fn_path(shard_fn: Callable[..., Any] | str) -> str:
    return shard_fn if isinstance(shard_fn, str) else callable_path(shard_fn)


class LocalRoundExecutor(RoundExecutor):
    """Run every shard in-process (the default, simulator-equivalent)."""

    def run_round(
        self,
        shard_fn: Callable[..., Any] | str,
        shards: Sequence[Any],
        *,
        round_name: str,
        params: Mapping[str, Any] | None = None,
    ) -> list[ShardResult]:
        path = _fn_path(shard_fn)
        return [
            ShardResult.from_record(
                execute_round_shard(
                    None, shard_fn=path, shard=shard, params=dict(params or {})
                )
            )
            for shard in shards
        ]


class SweepRoundExecutor(RoundExecutor):
    """Run shards as sweep points on any backend — including distributed.

    Each shard becomes a :class:`SweepPoint` named ``mpc:<round>`` whose
    seed is the shard index, so the point's content digest (the distributed
    idempotency key) distinguishes machines even when their shards are
    equal.  With ``backend="distributed"`` the shards execute on real
    ``repro worker`` processes, which recognise the ``mpc:`` prefix and
    report the round's measured payload words under the ``distributed``
    key of their ``/metrics``.
    """

    def __init__(
        self,
        *,
        backend: Backend | str | None = None,
        jobs: int | None = None,
        workers: Sequence[str] | None = None,
        cache: ResultCache | str | None = None,
    ) -> None:
        self.backend = backend
        self.jobs = jobs
        self.workers = list(workers) if workers is not None else None
        self.cache = cache

    def run_round(
        self,
        shard_fn: Callable[..., Any] | str,
        shards: Sequence[Any],
        *,
        round_name: str,
        params: Mapping[str, Any] | None = None,
    ) -> list[ShardResult]:
        path = _fn_path(shard_fn)
        points = [
            SweepPoint(
                experiment=f"mpc:{round_name}",
                fn=execute_round_shard,
                kwargs={
                    "shard_fn": path,
                    "shard": _normalize(shard),
                    "params": _normalize(dict(params or {})),
                },
                seed=index,
                trials=1,
            )
            for index, shard in enumerate(shards)
        ]
        results = run_sweep(
            points,
            backend=self.backend,
            jobs=self.jobs,
            workers=self.workers,
            cache=self.cache,
        )
        return [ShardResult.from_record(result.records[0]) for result in results]


# --------------------------------------------------------------------------- #
# A ready-made real round (also the smoke-test workload)
# --------------------------------------------------------------------------- #
def edge_degree_shard(shard: Sequence[Sequence[int]]) -> list[list[int]]:
    """One machine's half of a distributed degree count.

    ``shard`` is a list of ``[u, v]`` edges; returns sorted
    ``[vertex, degree]`` pairs for the vertices this shard touches.
    """
    counts: dict[int, int] = {}
    for u, v in shard:
        counts[int(u)] = counts.get(int(u), 0) + 1
        counts[int(v)] = counts.get(int(v), 0) + 1
    return [[vertex, counts[vertex]] for vertex in sorted(counts)]


def distributed_degree_count(
    edges: Sequence[Sequence[int]],
    *,
    num_machines: int = 2,
    executor: RoundExecutor | None = None,
    memory_per_machine: int | None = None,
) -> tuple[dict[int, int], Any]:
    """Count vertex degrees with one *executed* MPC round.

    The demonstration driver for executors: partitions ``edges`` in
    balanced contiguous blocks, runs :func:`edge_degree_shard` on every
    machine through the given executor (default in-process), merges the
    partial counts centrally, and returns ``(degrees, metrics)`` where
    ``metrics`` is the finished :class:`~repro.mapreduce.metrics.RunMetrics`
    with the round's *measured* loads.
    """
    from .engine import MPCContext
    from .partition import balanced_partition

    ctx = MPCContext(
        max(1, int(num_machines)),
        memory_per_machine,
        algorithm="distributed-degree-count",
        executor=executor,
    )
    edges = [list(edge) for edge in edges]
    assignment = balanced_partition(len(edges), ctx.num_machines)
    shards: list[list[list[int]]] = [[] for _ in range(ctx.num_machines)]
    for edge, machine in zip(edges, assignment):
        shards[int(machine)].append(edge)
    outputs = ctx.map_round(
        edge_degree_shard, shards, "degree count shards", phase="degree-count"
    )
    merged_words = sum(payload_words(output) for output in outputs)
    ctx.gather_to_central(merged_words, "merge partial degrees", phase="degree-count")
    degrees: dict[int, int] = {}
    for output in outputs:
        for vertex, count in output:
            degrees[int(vertex)] = degrees.get(int(vertex), 0) + int(count)
    return degrees, ctx.finish(num_edges=len(edges))
