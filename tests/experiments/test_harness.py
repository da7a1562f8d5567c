"""Unit tests for the experiment harness plumbing."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentRecord, aggregate_records


class TestAggregateRecords:
    def _records(self):
        return [
            ExperimentRecord("e", parameters={"n": 5}, metrics={"x": 1.0, "y": 10.0}, bounds={"b": 2.0}),
            ExperimentRecord("e", parameters={"n": 5}, metrics={"x": 3.0, "y": 30.0}, bounds={"b": 2.0}),
        ]

    def test_mean(self):
        agg = aggregate_records(self._records())
        assert agg.metrics == {"x": 2.0, "y": 20.0}
        assert agg.bounds == {"b": 2.0}
        assert agg.parameters == {"n": 5}
        assert agg.notes == {"trials": 2, "reduce": "mean"}

    def test_validity_conjunction(self):
        records = self._records()
        records[1].valid = False
        assert not aggregate_records(records).valid

    def test_missing_metric_in_one_trial(self):
        records = self._records()
        records[1].metrics.pop("y")
        agg = aggregate_records(records)
        assert agg.metrics["y"] == 10.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            aggregate_records([])
