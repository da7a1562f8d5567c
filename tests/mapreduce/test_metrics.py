"""Unit tests for metric collection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapreduce import RunMetrics


class TestRoundRecording:
    def test_record_round_assigns_indices(self):
        metrics = RunMetrics()
        a = metrics.record_round("first")
        b = metrics.record_round("second")
        assert (a.index, b.index) == (0, 1)
        assert metrics.num_rounds == 2

    def test_max_words_is_max_of_worker_and_central(self):
        metrics = RunMetrics()
        record = metrics.record_round("r", max_machine_words=10, central_words=25)
        assert record.max_words == 25

    def test_aggregates(self):
        metrics = RunMetrics()
        metrics.record_round("a", max_machine_words=10, central_words=5, words_communicated=100)
        metrics.record_round("b", max_machine_words=7, central_words=50, words_communicated=20)
        assert metrics.max_space_per_machine == 50
        assert metrics.total_communication == 120

    def test_empty_metrics(self):
        metrics = RunMetrics()
        assert metrics.num_rounds == 0
        assert metrics.max_space_per_machine == 0
        assert metrics.total_communication == 0

    def test_phases_preserved_in_order(self):
        metrics = RunMetrics()
        metrics.record_round("a", "p1")
        metrics.record_round("b", "p2")
        metrics.record_round("c", "p1")
        assert metrics.phases() == ["p1", "p2"]

    def test_unphased_rounds_share_the_empty_phase(self):
        metrics = RunMetrics()
        metrics.record_round("a")
        metrics.record_round("b", "p")
        assert metrics.phases() == ["", "p"]

    def test_round_records_are_immutable(self):
        record = RunMetrics().record_round("r", max_machine_words=3)
        with pytest.raises(AttributeError):  # a frozen dataclass
            record.max_machine_words = 5

    def test_record_round_stores_plain_ints(self):
        record = RunMetrics().record_round("r", max_machine_words=np.int64(3), central_words=np.int32(4))
        counts = (record.max_machine_words, record.central_words)
        assert counts == (3, 4) and {type(c) for c in counts} == {int}
