"""Round executors: real execution must not change the model's books.

The contract under test: :meth:`MPCContext.map_round` produces the same
outputs and the same :class:`RoundRecord` accounting whether a round's
shards run in-process (:class:`LocalRoundExecutor`), through the sweep
machinery (:class:`SweepRoundExecutor` on any backend), or across real
worker processes (``backend="distributed"`` — covered here with live
in-process workers, and again over subprocesses in the CI smoke script).
"""

from __future__ import annotations

import pytest

from repro.graphs import gnm_graph
from repro.mapreduce import (
    LocalRoundExecutor,
    MemoryExceededError,
    MPCContext,
    SweepRoundExecutor,
    distributed_degree_count,
    edge_degree_shard,
    execute_round_shard,
)
from repro.mapreduce.executor import ShardResult, _fn_path
from repro.distributed.protocol import payload_words

EDGES = [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [1, 3], [4, 0]]
DEGREES = {0: 4, 1: 3, 2: 3, 3: 3, 4: 1}


def _round_payloads(metrics) -> list[dict]:
    return [
        {
            "description": record.description,
            "max_machine_words": record.max_machine_words,
            "words_communicated": record.words_communicated,
            "central_words": record.central_words,
        }
        for record in metrics.rounds
    ]


class TestExecuteRoundShard:
    def test_record_carries_output_and_measured_words(self):
        record = execute_round_shard(
            None, shard_fn=_fn_path(edge_degree_shard), shard=[[0, 1], [1, 2]]
        )
        assert record.notes["output"] == [[0, 1], [1, 2], [2, 1]]
        assert record.metrics["input_words"] == payload_words([[0, 1], [1, 2]])
        assert record.metrics["output_words"] == payload_words(record.notes["output"])
        result = ShardResult.from_record(record)
        assert result.output == record.notes["output"]

    def test_output_is_canonical_json_shaped(self):
        def tuple_shard(shard):
            return {"pairs": tuple(tuple(edge) for edge in shard)}

        tuple_shard.__module__ = __name__
        tuple_shard.__qualname__ = "tuple_shard"
        globals()["tuple_shard"] = tuple_shard
        record = execute_round_shard(
            None, shard_fn=f"{__name__}.tuple_shard", shard=[[1, 2]]
        )
        assert record.notes["output"] == {"pairs": [[1, 2]]}  # tuples → lists


class TestExecutorEquivalence:
    def test_local_and_sweep_executors_agree(self):
        shards = [[[0, 1], [1, 2]], [[2, 3]], []]
        local = LocalRoundExecutor().run_round(
            edge_degree_shard, shards, round_name="deg"
        )
        swept = SweepRoundExecutor(backend="serial").run_round(
            edge_degree_shard, shards, round_name="deg"
        )
        assert [r.output for r in swept] == [r.output for r in local]
        assert [(r.input_words, r.output_words) for r in swept] == [
            (r.input_words, r.output_words) for r in local
        ]

    def test_map_round_defaults_to_local_executor(self):
        ctx = MPCContext(2, None, algorithm="t")
        outputs = ctx.map_round(edge_degree_shard, [[[0, 1]], [[1, 2]]], "deg")
        assert isinstance(ctx.executor, LocalRoundExecutor)
        assert outputs == [[[0, 1], [1, 1]], [[1, 1], [2, 1]]]

    def test_degree_count_identical_across_executors(self):
        golden_degrees, golden_metrics = distributed_degree_count(EDGES, num_machines=3)
        assert golden_degrees == DEGREES
        swept_degrees, swept_metrics = distributed_degree_count(
            EDGES, num_machines=3, executor=SweepRoundExecutor(backend="serial")
        )
        assert swept_degrees == golden_degrees
        assert _round_payloads(swept_metrics) == _round_payloads(golden_metrics)

    def test_degree_count_across_real_workers(self):
        from repro.backends import DistributedBackend
        from repro.service.server import start_in_background

        with start_in_background(worker=True, backend="serial", adaptive=False) as a:
            with start_in_background(worker=True, backend="serial", adaptive=False) as b:
                backend = DistributedBackend(
                    [f"127.0.0.1:{a.port}", f"127.0.0.1:{b.port}"]
                )
                degrees, metrics = distributed_degree_count(
                    EDGES, num_machines=2, executor=SweepRoundExecutor(backend=backend)
                )
        golden_degrees, golden_metrics = distributed_degree_count(EDGES, num_machines=2)
        assert degrees == golden_degrees == DEGREES
        assert _round_payloads(metrics) == _round_payloads(golden_metrics)


class TestDegreeCount:
    @pytest.mark.parametrize("num_machines", [1, 3, 8])
    def test_matches_graph_degrees(self, rng, num_machines):
        graph = gnm_graph(30, 120, rng)
        degrees, metrics = distributed_degree_count(graph.edge_array().tolist(), num_machines=num_machines)
        assert degrees == {v: int(d) for v, d in enumerate(graph.degrees()) if d}
        assert [r.phase for r in metrics.rounds] == ["degree-count", "degree-count"]

    def test_star_graph(self):
        degrees, _ = distributed_degree_count([[0, leaf] for leaf in range(1, 7)], num_machines=3)
        assert degrees == {0: 6, **{leaf: 1 for leaf in range(1, 7)}}

    def test_empty_edge_list(self):
        degrees, metrics = distributed_degree_count([], num_machines=3)
        assert degrees == {} and metrics.num_rounds == 2

    def test_degrees_independent_of_edge_order(self):
        for ordering in (EDGES, EDGES[::-1], EDGES[3:] + EDGES[:3]):
            degrees, metrics = distributed_degree_count(ordering, num_machines=3)
            assert degrees == DEGREES and metrics.num_rounds == 2


class TestAccounting:
    def test_map_round_checks_measured_loads_against_budget(self):
        shards = [[[0, 1], [1, 2]], [[2, 3]]]
        load = payload_words(shards[0]) + payload_words(edge_degree_shard(shards[0]))
        assert MPCContext(2, load).map_round(edge_degree_shard, shards, "deg")
        ctx = MPCContext(2, load - 1)
        with pytest.raises(MemoryExceededError) as excinfo:
            ctx.map_round(edge_degree_shard, shards, "deg")
        assert (excinfo.value.requested, excinfo.value.context) == (load, "deg")
        assert ctx.metrics.num_rounds == 0

    def test_measured_loads_feed_budget_checks(self):
        # A budget below the measured shard payload must trip the usual
        # MemoryExceededError — real execution, simulator enforcement.
        with pytest.raises(MemoryExceededError):
            distributed_degree_count(EDGES, num_machines=2, memory_per_machine=2)

    def test_round_words_match_measured_payloads(self):
        degrees, metrics = distributed_degree_count(EDGES, num_machines=2)
        [map_round, gather_round] = metrics.rounds
        shards = [EDGES[:4], EDGES[4:]]
        outputs = [edge_degree_shard(shard) for shard in shards]
        expected_loads = [
            payload_words(shard) + payload_words(output)
            for shard, output in zip(shards, outputs)
        ]
        assert map_round.max_machine_words == max(expected_loads)
        assert map_round.words_communicated == sum(
            payload_words(output) for output in outputs
        )
        assert gather_round.central_words == map_round.words_communicated

    def test_empty_shard_still_counts_a_machine(self):
        # More machines than edges: trailing machines get empty shards and
        # still participate in (and are accounted for in) the round.
        ctx = MPCContext(4, None)
        outputs = ctx.map_round(edge_degree_shard, [[[0, 1]], [], [], []], "deg")
        assert outputs == [[[0, 1], [1, 1]], [], [], []]
        degrees, metrics = distributed_degree_count([[0, 1]], num_machines=4)
        assert degrees == {0: 1, 1: 1}
        assert metrics.rounds[0].max_machine_words == payload_words([[0, 1]]) + payload_words(
            outputs[0]
        )
