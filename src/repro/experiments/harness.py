"""Experiment harness: result records and their aggregation over trials.

All Figure-1 experiments follow the same shape: build a synthetic workload
from a seed, run the paper's MPC algorithm plus one or more baselines,
validate every solution with an independent certificate checker, and report
(i) solution quality relative to a reference, (ii) the measured MapReduce
rounds, and (iii) the measured maximum space per machine.  This module holds
the shared plumbing; :mod:`repro.experiments.figure1` holds the per-row
logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Sequence

__all__ = ["ExperimentRecord", "aggregate_records"]


@dataclass
class ExperimentRecord:
    """One experiment trial's outcome.

    ``metrics`` holds measured quantities (rounds, space, ratios, objective
    values); ``bounds`` holds the corresponding theoretical values;
    ``parameters`` records the workload parameters so records are
    self-describing.
    """

    experiment: str
    parameters: dict[str, object] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    bounds: dict[str, float] = field(default_factory=dict)
    valid: bool = True
    notes: dict[str, object] = field(default_factory=dict)


def aggregate_records(records: Sequence[ExperimentRecord]) -> ExperimentRecord:
    """Aggregate several trial records of the same experiment into one.

    Metrics are averaged; bounds and parameters are taken from the first
    record (they are identical across trials); validity is the conjunction.
    """
    if not records:
        raise ValueError("cannot aggregate zero records")
    first = records[0]
    metric_keys: list[str] = []
    for record in records:
        for key in record.metrics:
            if key not in metric_keys:
                metric_keys.append(key)
    combined: dict[str, float] = {}
    for key in metric_keys:
        values = [r.metrics[key] for r in records if key in r.metrics]
        combined[key] = float(mean(values))
    return ExperimentRecord(
        experiment=first.experiment,
        parameters=dict(first.parameters),
        metrics=combined,
        bounds=dict(first.bounds),
        valid=all(r.valid for r in records),
        # The constant "reduce" note keeps --trials output byte-stable.
        notes={"trials": len(records), "reduce": "mean"},
    )

