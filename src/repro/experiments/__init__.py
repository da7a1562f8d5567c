"""Experiment harness: Figure-1 reproduction and ablation sweeps.

Every sweep here is expressed as independent, self-seeded
:class:`~repro.backends.SweepPoint` evaluations executed through
:func:`~repro.backends.run_sweep`, so it can run on any execution backend
(serial, multiprocessing, batch) with identical results.
"""

from .ablations import sweep_epsilon, sweep_mu, sweep_sample_budget
from .figure1 import (
    figure1_points,
    b_matching_experiment,
    edge_colouring_experiment,
    matching_experiment,
    matching_mu0_experiment,
    maximal_clique_experiment,
    mis_experiment,
    run_figure1,
    set_cover_f_experiment,
    set_cover_greedy_experiment,
    vertex_colouring_experiment,
    vertex_cover_experiment,
)
from .harness import ExperimentRecord, aggregate_records, run_trials, seeded_rngs
from .scaling import rounds_vs_c, rounds_vs_n, space_vs_mu

__all__ = [
    "ExperimentRecord",
    "aggregate_records",
    "run_trials",
    "seeded_rngs",
    "figure1_points",
    "run_figure1",
    "vertex_cover_experiment",
    "set_cover_f_experiment",
    "set_cover_greedy_experiment",
    "mis_experiment",
    "maximal_clique_experiment",
    "matching_experiment",
    "matching_mu0_experiment",
    "b_matching_experiment",
    "vertex_colouring_experiment",
    "edge_colouring_experiment",
    "sweep_mu",
    "sweep_sample_budget",
    "sweep_epsilon",
    "rounds_vs_n",
    "rounds_vs_c",
    "space_vs_mu",
]
