"""Vertex and edge colouring algorithms (Section 6)."""

from .edge_colouring import mapreduce_edge_colouring
from .mapreduce_impl import mpc_edge_colouring, mpc_vertex_colouring
from .vertex_colouring import (
    default_num_groups,
    greedy_vertex_colouring,
    mapreduce_vertex_colouring,
)

__all__ = [
    "mapreduce_vertex_colouring",
    "mapreduce_edge_colouring",
    "greedy_vertex_colouring",
    "default_num_groups",
    "mpc_vertex_colouring",
    "mpc_edge_colouring",
]
