"""Unit tests for the MPC round engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapreduce import MemoryExceededError, MPCContext, ProtocolError, tree_rounds, words_of


class TestWordsOf:
    def test_none_costs_nothing(self):
        assert words_of(None) == 0

    def test_scalars_cost_one_word(self):
        assert words_of(7) == 1
        assert words_of(3.14) == 1
        assert words_of(True) == 1
        assert words_of("token") == 1
        assert words_of(np.int64(5)) == 1
        assert words_of(np.float64(5.0)) == 1

    def test_numpy_array_costs_its_size(self):
        assert words_of(np.zeros(17)) == 17
        assert words_of(np.zeros((3, 4))) == 12

    def test_list_and_tuple_cost_sum_of_items(self):
        assert words_of([1, 2, 3]) == 3
        assert words_of((1.0, "a")) == 2
        assert words_of([np.zeros(5), 1]) == 6

    def test_dict_costs_keys_plus_values(self):
        assert words_of({1: 2, 3: np.zeros(4)}) == 1 + 1 + 1 + 4

    def test_nested_structures(self):
        assert words_of([[1, 2], [3, 4, 5]]) == 5

    def test_object_with_word_count_hook(self):
        class Payload:
            def word_count(self):
                return 42

        assert words_of(Payload()) == 42

    def test_unknown_object_costs_one(self):
        assert words_of(object()) == 1


class TestTreeRounds:
    def test_single_machine_needs_one_round(self):
        assert tree_rounds(1, 4) == 1

    def test_exact_powers(self):
        assert tree_rounds(16, 4) == 2
        assert tree_rounds(64, 4) == 3
        # log(M) / log(f) in floats lands just above the depth for these.
        assert tree_rounds(125, 5) == 3
        assert tree_rounds(216, 6) == 3
        assert tree_rounds(5832, 18) == 3
        assert tree_rounds(15625, 25) == 3
        assert tree_rounds(46656, 36) == 3
        assert tree_rounds(15625, 5) == 6
        assert tree_rounds(46656, 6) == 6
        assert tree_rounds(16807, 7) == 5

    def test_rounds_up(self):
        assert tree_rounds(17, 4) == 3
        assert tree_rounds(5, 2) == 3

    def test_large_fanout_one_round(self):
        assert tree_rounds(100, 1000) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            tree_rounds(0, 2)
        with pytest.raises(ValueError):
            tree_rounds(4, 1)


class TestConstruction:
    def test_shape_and_budget(self):
        ctx = MPCContext(4, 1000)
        assert ctx.num_machines == 4
        assert ctx.memory_per_machine == 1000

    def test_rejects_zero_machines(self):
        with pytest.raises(ValueError):
            MPCContext(0, 100)

    def test_sizes_are_stored_as_plain_ints(self):
        ctx = MPCContext(np.int64(3), np.int64(50))
        assert type(ctx.num_machines) is int and type(ctx.memory_per_machine) is int

    def test_fanout_below_two_is_clamped(self):
        ctx = MPCContext(4, None, default_fanout=1)
        assert ctx.default_fanout == 2
        assert ctx.broadcast(1, "c") == 2
        assert ctx.aggregate(1, "s") == 2

    def test_unlimited_memory_disables_enforcement(self):
        ctx = MPCContext(2, None)
        assert ctx.memory_per_machine is None
        ctx.parallel_round("huge", machine_loads=10**12)
        ctx.gather_to_central(10**12, "huge sample")
        ctx.broadcast(10**9, "huge payload")
        assert ctx.finish().max_space_per_machine == 10**12


class TestParallelRound:
    def test_records_round_with_description_and_phase(self):
        ctx = MPCContext(4, 1000, algorithm="demo")
        ctx.parallel_round("sample", phase="iter-1", machine_loads=500)
        metrics = ctx.finish()
        assert metrics.num_rounds == 1
        assert metrics.rounds[0].description == "sample"
        assert metrics.rounds[0].phase == "iter-1"
        assert metrics.rounds[0].max_machine_words == 500

    def test_scalar_and_array_loads(self):
        ctx = MPCContext(3, 1000)
        ctx.parallel_round("a", machine_loads=[10, 999, 3])
        ctx.parallel_round("b", machine_loads=np.array([7, 8], dtype=np.int64))
        ctx.parallel_round("c", machine_loads=[])
        assert [r.max_machine_words for r in ctx.metrics.rounds] == [999, 8, 0]

    def test_load_at_budget_is_allowed(self):
        ctx = MPCContext(2, 100)
        ctx.parallel_round("exactly full", machine_loads=[100, 3])
        assert ctx.metrics.rounds[0].max_machine_words == 100

    def test_memory_violation_raises_with_context(self):
        ctx = MPCContext(2, 100)
        with pytest.raises(MemoryExceededError) as excinfo:
            ctx.parallel_round("too big", machine_loads=[5, 101])
        assert excinfo.value.machine_id == "worker"
        assert excinfo.value.requested == 101
        assert excinfo.value.limit == 100
        assert excinfo.value.context == "too big"
        assert ctx.metrics.num_rounds == 0


# Each primitive driven so the one load it checks equals ``load`` (a tree node of
# the context's fan-out 4 holds five payloads), with the machine and context a
# violation reports.
TREE_LEVEL_0 = "step (tree level 0)"
PRIMITIVES = {
    "parallel": (lambda ctx, load: ctx.parallel_round("step", machine_loads=[1, load]), "worker", "step"),
    "gather": (lambda ctx, load: ctx.gather_to_central(load, "step"), "central", "step"),
    "broadcast": (lambda ctx, load: ctx.broadcast(load // 5, "step"), "worker", TREE_LEVEL_0),
    "aggregate": (lambda ctx, load: ctx.aggregate(load // 5, "step"), "worker", TREE_LEVEL_0),
}


class TestBudgets:
    """One budget binds every round primitive, the central machine's included."""

    @pytest.mark.parametrize("primitive", sorted(PRIMITIVES))
    def test_load_at_budget_is_recorded(self, primitive):
        ctx = MPCContext(16, 100, default_fanout=4)
        PRIMITIVES[primitive][0](ctx, 100)
        assert ctx.metrics.num_rounds >= 1 and ctx.metrics.max_space_per_machine == 100

    @pytest.mark.parametrize("primitive", sorted(PRIMITIVES))
    def test_load_over_budget_raises_and_records_nothing(self, primitive):
        run, machine, context = PRIMITIVES[primitive]
        ctx = MPCContext(16, 100, default_fanout=4)
        with pytest.raises(MemoryExceededError) as excinfo:
            run(ctx, 105)
        assert (excinfo.value.machine_id, excinfo.value.context) == (machine, context)
        assert (excinfo.value.requested, excinfo.value.limit) == (105, 100)
        assert ctx.metrics.num_rounds == 0

    def test_violation_leaves_the_run_open(self):
        ctx = MPCContext(2, 100)
        with pytest.raises(MemoryExceededError):
            ctx.parallel_round("too big", machine_loads=101)
        ctx.parallel_round("fits", machine_loads=99)
        assert [(r.index, r.description) for r in ctx.finish().rounds] == [(0, "fits")]

    def test_peak_space_is_the_largest_round(self):
        ctx = MPCContext(4, 100)
        ctx.parallel_round("a", machine_loads=[30, 10])
        ctx.gather_to_central(80, "b", max_worker_send=5)
        ctx.parallel_round("c", machine_loads=10)
        assert ctx.finish().max_space_per_machine == 80

    def test_error_message_names_machine_budget_and_round(self):
        expected = r"'central' requires 7 words but has a budget of 5 words \(sample\)$"
        with pytest.raises(MemoryExceededError, match=expected):
            MPCContext(2, 5).gather_to_central(7, "sample")


class TestGatherToCentral:
    def test_counts_central_words_and_communication(self):
        ctx = MPCContext(4, 1000)
        ctx.gather_to_central(800, "ship sample", max_worker_send=30)
        record = ctx.metrics.rounds[0]
        assert record.central_words == 800
        assert record.words_communicated == 800
        assert record.max_machine_words == 30

    def test_central_budget_enforced(self):
        ctx = MPCContext(4, 100)
        with pytest.raises(MemoryExceededError) as excinfo:
            ctx.gather_to_central(101, "too big")
        assert excinfo.value.machine_id == "central"

    def test_worker_send_checked_against_budget(self):
        ctx = MPCContext(4, 100)
        with pytest.raises(MemoryExceededError) as excinfo:
            ctx.gather_to_central(50, "worker overflow", max_worker_send=101)
        assert excinfo.value.machine_id == "worker"


class TestBroadcastAndAggregate:
    def test_broadcast_charges_tree_depth_rounds(self):
        ctx = MPCContext(16, 10_000, default_fanout=4)
        rounds = ctx.broadcast(10, "send C")
        assert rounds == 2
        assert ctx.metrics.num_rounds == 2

    def test_broadcast_levels_record_tree_node_load_and_reach(self):
        ctx = MPCContext(20, 10_000, default_fanout=4)
        ctx.broadcast(10, "send C", phase="iteration-1")
        rounds = ctx.metrics.rounds
        assert [r.description for r in rounds] == [
            "send C [broadcast level 1/3]",
            "send C [broadcast level 2/3]",
            "send C [broadcast level 3/3]",
        ]
        assert {r.phase for r in rounds} == {"iteration-1"}
        assert [r.max_machine_words for r in rounds] == [50, 50, 50]
        assert [r.central_words for r in rounds] == [0, 0, 0]
        assert [r.words_communicated for r in rounds] == [40, 160, 200]

    def test_broadcast_single_machine(self):
        ctx = MPCContext(1, 1000)
        assert ctx.broadcast(10, "send C") == 1

    def test_broadcast_respects_memory(self):
        ctx = MPCContext(16, 100, default_fanout=4)
        with pytest.raises(MemoryExceededError):
            ctx.broadcast(50, "payload too large for tree node")

    def test_aggregate_matches_broadcast_depth(self):
        ctx = MPCContext(64, 10_000, default_fanout=4)
        assert ctx.aggregate(1, "count") == 3
        assert [r.central_words for r in ctx.metrics.rounds] == [4, 4, 4]
        assert [r.words_communicated for r in ctx.metrics.rounds] == [64, 16, 4]

    def test_aggregate_levels_record_descriptions_and_senders(self):
        ctx = MPCContext(20, 10_000, default_fanout=4)
        ctx.aggregate(2, "count", phase="iteration-2")
        rounds = ctx.metrics.rounds
        assert [r.description for r in rounds] == [f"count [aggregate level {i}/3]" for i in (1, 2, 3)]
        assert {r.phase for r in rounds} == {"iteration-2"}
        assert [r.max_machine_words for r in rounds] == [10, 10, 10]
        assert [r.words_communicated for r in rounds] == [40, 10, 2]

    def test_communication_accumulates(self):
        ctx = MPCContext(8, 10_000, default_fanout=8)
        ctx.broadcast(5, "c")
        assert ctx.metrics.total_communication == 5 * 8


class TestMapRound:
    """``map_round`` runs a round in process and charges what it measured."""

    def test_every_shard_is_a_machine_and_outputs_keep_shard_order(self):
        seen = []

        def shard_fn(shard):  # a closure is fine: nothing leaves the process
            seen.append(shard)
            return sorted(shard)

        ctx = MPCContext(4, None)
        outputs = ctx.map_round(shard_fn, [[3, 1], [], [2], []], "sort", phase="p")
        assert outputs == [[1, 3], [], [2], []]
        assert seen == [[3, 1], [], [2], []]
        assert [(r.description, r.phase) for r in ctx.finish().rounds] == [("sort", "p")]

    def test_charges_shard_plus_output_words_and_outputs_as_communication(self):
        ctx = MPCContext(3, None)
        shards = [np.arange(5), np.arange(2), np.arange(0)]
        outputs = ctx.map_round(lambda a: a[a % 2 == 0], shards, "evens")
        assert [o.tolist() for o in outputs] == [[0, 2, 4], [0], []]
        [record] = ctx.finish().rounds
        assert record.max_machine_words == 5 + 3
        assert record.words_communicated == 3 + 1 + 0

    def test_measured_load_at_and_over_the_budget(self):
        shards = [{"a": 1, "b": 2}, {"c": 3}]  # 4 + 2 words, 2 + 1 words out
        assert MPCContext(2, 6).map_round(list, shards, "keys") == [["a", "b"], ["c"]]
        ctx = MPCContext(2, 5)
        with pytest.raises(MemoryExceededError) as excinfo:
            ctx.map_round(list, shards, "keys")
        assert (excinfo.value.requested, excinfo.value.context) == (6, "keys")
        assert ctx.metrics.num_rounds == 0


class TestLifecycle:
    def test_finish_returns_metrics_with_notes(self):
        ctx = MPCContext(2, 100, algorithm="alg")
        ctx.parallel_round("r", machine_loads=1)
        metrics = ctx.finish(n=10, mu=0.5)
        assert metrics.algorithm == "alg"
        assert metrics.notes["n"] == 10
        assert metrics.notes["mu"] == 0.5

    def test_rounds_after_finish_rejected(self):
        ctx = MPCContext(2, 100)
        ctx.finish()
        with pytest.raises(ProtocolError):
            ctx.parallel_round("late", machine_loads=1)
        with pytest.raises(ProtocolError):
            ctx.gather_to_central(1, "late")
        with pytest.raises(ProtocolError):
            ctx.broadcast(1, "late")
        with pytest.raises(ProtocolError):
            ctx.aggregate(1, "late")
        with pytest.raises(ProtocolError):
            ctx.finish()

    def test_map_round_after_finish_rejected_before_running_shards(self):
        def shard_fn(shard):
            raise AssertionError("a shard ran after finish()")

        ctx = MPCContext(2, None)
        ctx.finish()
        with pytest.raises(ProtocolError):
            ctx.map_round(shard_fn, [[]], "late")
