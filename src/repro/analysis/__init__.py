"""Analysis utilities: theoretical bounds, ratio computation, table rendering."""

from .bounds import (
    TheoremBound,
    b_matching_bound,
    colouring_bound,
    harmonic,
    matching_bound,
    matching_mu0_bound,
    maximal_clique_bound,
    mis_bound,
    set_cover_f_bound,
    set_cover_greedy_bound,
    vertex_cover_bound,
)
from .ratios import maximization_ratio, minimization_ratio, within_guarantee
from .tables import format_table

__all__ = [
    "TheoremBound",
    "vertex_cover_bound",
    "set_cover_f_bound",
    "set_cover_greedy_bound",
    "mis_bound",
    "maximal_clique_bound",
    "matching_bound",
    "matching_mu0_bound",
    "b_matching_bound",
    "colouring_bound",
    "harmonic",
    "minimization_ratio",
    "maximization_ratio",
    "within_guarantee",
    "format_table",
]
