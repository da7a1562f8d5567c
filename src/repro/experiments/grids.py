"""Named grids: the ``repro ablation`` and ``repro scaling`` sweeps.

A grid is one registered Figure-1 row, the overrides all of its cells
share, and one swept parameter with its values.  :meth:`Grid.cells` turns it
into the ``(row, overrides)`` cells that
:func:`~repro.experiments.figure1.figure1_points` builds, so a cell is an
ordinary Figure-1 point and its record carries the row's theorem bounds and
certificate check.  Four rules replace per-sweep code:

1. every cell runs on its row's Figure-1 seed ``(seed, row_index)``, so
   cells that differ only in µ or ε run on the same instance;
2. no cell runs blossom or a cover LP (``include_exact=False`` /
   ``include_lp=False``);
3. every driver sets ``η = n^{1+µ}``, so the η ablation is a µ grid with
   ``µ = exponent − 1``; exponent 1.0 becomes µ = 0.05, the value
   ``fig1-matching-mu0`` uses, because every ``c/µ`` bound is undefined at 0;
4. a grid that sweeps a workload parameter (``n`` or ``c``) takes no
   scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..registry import get_algorithm

__all__ = ["GRIDS", "Grid", "find_grid", "grid_pairs"]

#: The parameters that shape the generated workload (rule 4).
WORKLOAD_PARAMS = ("n", "c")

#: The reference baselines no cell runs (rule 2), for the rows that have them.
_NO_REFERENCE = {"include_exact": False, "include_lp": False}


@dataclass(frozen=True)
class Grid:
    """One registered row swept over one parameter."""

    algorithm: str
    param: str
    values: tuple[float, ...]
    fixed: Mapping[str, Any] = field(default_factory=dict)

    @property
    def sweeps_workload(self) -> bool:
        return self.param in WORKLOAD_PARAMS

    def cells(self) -> list[tuple[str, dict[str, Any]]]:
        """The ``(row, overrides)`` pairs the Figure-1 point builder takes."""
        spec = get_algorithm(self.algorithm)
        fixed = {k: v for k, v in _NO_REFERENCE.items() if k in spec.params} | dict(self.fixed)
        return [(spec.experiment, {**fixed, self.param: value}) for value in self.values]


_MUS = (0.15, 0.25, 0.35, 0.5)
_EPSILONS = (0.1, 0.25, 0.5, 1.0)
_ETA_MUS = (0.05, 0.15, 0.3)  # η = n^{1.0}, n^{1.15}, n^{1.3}
_SIZES = (60, 120, 240)

#: ``(subcommand, sweep)`` → the sweep's grids; the first is its default.
GRIDS: dict[tuple[str, str], tuple[Grid, ...]] = {
    ("ablation", "mu"): (
        Grid("matching", "mu", _MUS, {"n": 120, "c": 0.45}),
        Grid("vertex-cover", "mu", _MUS, {"n": 120, "c": 0.45}),
        Grid("mis", "mu", _MUS, {"n": 120, "c": 0.45}),
    ),
    ("ablation", "eta"): (
        Grid("matching", "mu", _ETA_MUS, {"n": 120, "c": 0.45}),
        Grid("set-cover", "mu", _ETA_MUS, {"num_sets": 120, "num_elements": 960}),
    ),
    ("ablation", "epsilon"): (
        Grid(
            "set-cover-greedy",
            "epsilon",
            _EPSILONS,
            {"num_sets": 180, "num_elements": 50, "density": 0.08, "mu": 0.3},
        ),
        Grid("b-matching", "epsilon", _EPSILONS, {"n": 90, "c": 0.45, "b": 3, "mu": 0.3}),
    ),
    ("scaling", "n"): (
        Grid("matching", "n", _SIZES, {"c": 0.45, "mu": 0.3}),
        Grid("vertex-cover", "n", _SIZES, {"c": 0.45, "mu": 0.3}),
        Grid("mis", "n", _SIZES, {"c": 0.45, "mu": 0.3}),
    ),
    ("scaling", "c"): (
        Grid("matching", "c", (0.3, 0.45, 0.6), {"n": 130, "mu": 0.25}),
    ),
    ("scaling", "space"): (
        Grid("matching", "mu", (0.15, 0.3, 0.5), {"n": 130, "c": 0.45}),
    ),
}


def grid_pairs(command: str) -> str:
    """``repro COMMAND``'s valid ``SWEEP --algorithm NAME`` pairs, for messages."""
    return "; ".join(
        f"{sweep} --algorithm {'|'.join(grid.algorithm for grid in grids)}"
        for (name, sweep), grids in GRIDS.items()
        if name == command
    )


def find_grid(command: str, sweep: str, algorithm: str | None = None) -> Grid:
    """The grid ``repro COMMAND SWEEP --algorithm ALGORITHM`` runs.

    ``algorithm`` defaults to the sweep's first grid; an unknown
    ``(sweep, algorithm)`` pair raises ``ValueError`` naming the valid ones.
    """
    for grid in GRIDS.get((command, sweep), ()):
        if algorithm is None or grid.algorithm == algorithm:
            return grid
    raise ValueError(
        f"{command} {sweep} has no grid for {algorithm!r}; valid pairs: {grid_pairs(command)}"
    )
