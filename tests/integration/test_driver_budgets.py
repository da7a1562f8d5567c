"""Every paper driver enforces its space budget through ``MPCContext``.

All ten ``mpc_*`` drivers size their per-machine budget from one
``SPACE_SLACK`` in :mod:`repro.core.local_ratio.mapreduce_impl`, read when
the driver runs.  Shrinking it must make every driver raise
``MemoryExceededError`` on its first round, which is what makes the space
column of Figure 1 falsifiable.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
import pytest

import repro
from repro.core.local_ratio import mapreduce_impl as local_ratio_mpc
from repro.mapreduce import MemoryExceededError


def _graph():
    return repro.densified_graph(60, 0.3, np.random.default_rng(1), weights="uniform")


def _f_instance():
    return repro.random_frequency_bounded_instance(40, 200, 3, np.random.default_rng(2))


def _greedy_instance():
    return repro.random_coverage_instance(120, 40, np.random.default_rng(3), density=0.1)


#: (name, call) for the ten drivers; ``call(rng)`` runs one on a small instance.
DRIVERS: list[tuple[str, Callable[[np.random.Generator], Any]]] = [
    ("vertex-cover", lambda rng: repro.mpc_weighted_vertex_cover(_graph(), np.ones(60), 0.25, rng)),
    ("set-cover", lambda rng: repro.mpc_weighted_set_cover(_f_instance(), 0.25, rng)),
    ("set-cover-greedy", lambda rng: repro.mpc_greedy_set_cover(_greedy_instance(), 0.4, rng)),
    ("mis", lambda rng: repro.mpc_maximal_independent_set(_graph(), 0.3, rng)),
    ("mis-simple", lambda rng: repro.mpc_maximal_independent_set_simple(_graph(), 0.3, rng)),
    ("maximal-clique", lambda rng: repro.mpc_maximal_clique(_graph(), 0.35, rng)),
    ("matching", lambda rng: repro.mpc_weighted_matching(_graph(), 0.25, rng)),
    ("b-matching", lambda rng: repro.mpc_weighted_b_matching(_graph(), 3, 0.25, rng)),
    ("vertex-colouring", lambda rng: repro.mpc_vertex_colouring(_graph(), 0.2, rng)),
    ("edge-colouring", lambda rng: repro.mpc_edge_colouring(_graph(), 0.2, rng)),
]
IDS = [name for name, _ in DRIVERS]


@pytest.mark.parametrize("name,call", DRIVERS, ids=IDS)
def test_driver_raises_when_its_budget_shrinks(name, call, monkeypatch):
    _, metrics = call(np.random.default_rng(7))
    first_round = metrics.rounds[0].description
    monkeypatch.setattr(local_ratio_mpc, "SPACE_SLACK", 1e-9)
    with pytest.raises(MemoryExceededError) as excinfo:
        call(np.random.default_rng(7))
    assert excinfo.value.context
    assert excinfo.value.context == first_round
    assert excinfo.value.requested > excinfo.value.limit


@pytest.mark.parametrize("name,call", DRIVERS, ids=IDS)
def test_driver_round_records_repeat_under_a_seed(name, call):
    _, first = call(np.random.default_rng(7))
    _, second = call(np.random.default_rng(7))
    assert first.num_rounds > 0
    assert first.rounds == second.rounds
    assert first.notes == second.notes
