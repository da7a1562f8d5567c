#!/usr/bin/env python
"""Reproduce Figure 1 of the paper on laptop-scale synthetic workloads.

For every Figure-1 row attributed to the paper this script runs the
corresponding experiment (the same ones the tier-1 shape tests use), prints
a measured counterpart of the table — approximation ratio achieved, measured
MapReduce rounds, measured maximum words per machine — next to the
theoretical guarantee, and flags any violation.

Run with:  python examples/reproduce_figure1.py [seed] [--trials N]
"""

from __future__ import annotations

import argparse

import repro
from repro.analysis import format_table
from repro.experiments import aggregate_records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("seed", nargs="?", type=int, default=2018)
    parser.add_argument("--trials", type=int, default=2, help="repetitions per row")
    args = parser.parse_args()

    rows: list[list[object]] = []
    for spec in repro.iter_algorithms():
        name = spec.experiment
        result = repro.solve(spec.name, seed=args.seed, trials=args.trials)
        record = aggregate_records(result.records)
        ratio_key = next(
            (k for k in ("ratio_vs_optimal", "ratio_vs_lp", "colours_over_delta") if k in record.metrics),
            None,
        )
        guarantee = record.bounds.get("approximation") or record.bounds.get("colours")
        rows.append(
            [
                name,
                "OK" if record.valid else "INVALID",
                f"{record.metrics[ratio_key]:.3f}" if ratio_key else "-",
                f"{guarantee:.2f}" if guarantee else "-",
                f"{record.metrics['rounds']:.0f}",
                f"{record.bounds.get('rounds', float('nan')):.1f}",
                f"{record.metrics['max_space_per_machine']:.0f}",
            ]
        )
        print(f"· {name}: done ({args.trials} trial(s))")

    print()
    print(
        format_table(
            [
                "experiment",
                "valid",
                "measured ratio",
                "guarantee",
                "rounds",
                "O(rounds) term",
                "max words/machine",
            ],
            rows,
        )
    )
    print(
        "\nNotes: 'measured ratio' is vs. an exact optimum or LP bound for covers/"
        "matchings and colours/∆ for colourings; the rounds column counts every "
        "synchronous MapReduce round charged by the simulator (including broadcast "
        "tree levels), while the O(·) term is the leading theoretical expression "
        "without constants."
    )


if __name__ == "__main__":
    main()
