"""Unit tests for the MPC round engine."""

from __future__ import annotations

import pytest

from repro.mapreduce import Cluster, MemoryExceededError, MPCContext, ProtocolError, tree_rounds


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


class TestParallelRound:
    def test_records_round_with_description_and_phase(self):
        ctx = MPCContext(Cluster(4, 1000), algorithm="demo")
        ctx.parallel_round("sample", phase="iter-1", machine_loads=500)
        metrics = ctx.finish()
        assert metrics.num_rounds == 1
        assert metrics.rounds[0].description == "sample"
        assert metrics.rounds[0].phase == "iter-1"
        assert metrics.rounds[0].max_machine_words == 500

    def test_scalar_and_array_loads(self):
        ctx = MPCContext(Cluster(3, 1000))
        ctx.parallel_round("a", machine_loads=[10, 999, 3])
        assert ctx.metrics.rounds[0].max_machine_words == 999

    def test_uses_live_loads_when_not_given(self):
        import numpy as np

        cluster = Cluster(2, 1000)
        cluster[1].put("x", np.zeros(123))
        ctx = MPCContext(cluster)
        ctx.parallel_round("a")
        assert ctx.metrics.rounds[0].max_machine_words == 123

    def test_strict_memory_violation_raises(self):
        ctx = MPCContext(Cluster(2, 100), strict=True)
        with pytest.raises(MemoryExceededError):
            ctx.parallel_round("too big", machine_loads=101)

    def test_non_strict_records_violation(self):
        ctx = MPCContext(Cluster(2, 100), strict=False)
        ctx.parallel_round("too big", machine_loads=101)
        metrics = ctx.finish()
        assert metrics.num_rounds == 1
        assert "violations" in metrics.notes


class TestGatherToCentral:
    def test_counts_central_words_and_communication(self):
        ctx = MPCContext(Cluster(4, 1000))
        ctx.gather_to_central(800, "ship sample")
        record = ctx.metrics.rounds[0]
        assert record.central_words == 800
        assert record.words_communicated == 800
        assert record.messages == 4

    def test_central_budget_enforced(self):
        ctx = MPCContext(Cluster(4, 100))
        with pytest.raises(MemoryExceededError):
            ctx.gather_to_central(101, "too big")

    def test_central_budget_includes_existing_state(self):
        import numpy as np

        cluster = Cluster(4, 100)
        cluster.central.put("state", np.zeros(60))
        ctx = MPCContext(cluster)
        with pytest.raises(MemoryExceededError):
            ctx.gather_to_central(50, "overflow on top of state")

    def test_separate_central_memory(self):
        cluster = Cluster(4, 100, central_memory=10_000)
        ctx = MPCContext(cluster)
        ctx.gather_to_central(5000, "big sample to big central")
        assert ctx.metrics.max_central_space == 5000


class TestBroadcastAndAggregate:
    def test_broadcast_charges_tree_depth_rounds(self):
        ctx = MPCContext(Cluster(16, 10_000), default_fanout=4)
        rounds = ctx.broadcast(10, "send C")
        assert rounds == 2
        assert ctx.metrics.num_rounds == 2

    def test_broadcast_single_machine(self):
        ctx = MPCContext(Cluster(1, 1000))
        assert ctx.broadcast(10, "send C") == 1

    def test_broadcast_respects_memory(self):
        ctx = MPCContext(Cluster(16, 100), default_fanout=4)
        with pytest.raises(MemoryExceededError):
            ctx.broadcast(50, "payload too large for tree node")

    def test_aggregate_matches_broadcast_depth(self):
        ctx = MPCContext(Cluster(64, 10_000), default_fanout=4)
        assert ctx.aggregate(1, "count") == 3

    def test_explicit_fanout_overrides_default(self):
        ctx = MPCContext(Cluster(64, 10_000), default_fanout=2)
        assert ctx.broadcast(1, "c", fanout=64) == 1

    def test_communication_accumulates(self):
        ctx = MPCContext(Cluster(8, 10_000), default_fanout=8)
        ctx.broadcast(5, "c")
        assert ctx.metrics.total_communication == 5 * 8


class TestLifecycle:
    def test_finish_returns_metrics_with_notes(self):
        ctx = MPCContext(Cluster(2, 100), algorithm="alg")
        ctx.parallel_round("r")
        metrics = ctx.finish(n=10, mu=0.5)
        assert metrics.algorithm == "alg"
        assert metrics.notes["n"] == 10
        assert metrics.notes["mu"] == 0.5

    def test_rounds_after_finish_rejected(self):
        ctx = MPCContext(Cluster(2, 100))
        ctx.finish()
        with pytest.raises(ProtocolError):
            ctx.parallel_round("late")
        with pytest.raises(ProtocolError):
            ctx.finish()

    def test_violations_property_lists_messages(self):
        ctx = MPCContext(Cluster(2, 10), strict=False)
        ctx.parallel_round("x", machine_loads=100)
        assert len(ctx.violations) == 1
