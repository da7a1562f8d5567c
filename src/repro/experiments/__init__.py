"""Experiment harness: the Figure-1 rows and the named grids over them.

Every sweep here is expressed as independent, self-seeded
:class:`~repro.backends.SweepPoint` evaluations built by
:func:`figure1_points` and executed through
:func:`~repro.backends.run_sweep`, so it can run on any execution backend
(serial, multiprocessing, batch) with identical results.  The ablation and
scaling sweeps are :class:`Grid` entries of :data:`GRIDS`: one registered
row swept over one parameter.
"""

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
from .grids import GRIDS, Grid, find_grid
from .harness import ExperimentRecord, aggregate_records

__all__ = [
    "ExperimentRecord",
    "aggregate_records",
    "figure1_points",
    "run_figure1",
    "GRIDS",
    "Grid",
    "find_grid",
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
]
