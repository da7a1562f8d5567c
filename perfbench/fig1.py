"""Workload ``fig1``: the Figure-1 sweep as a reader runs it.

``repro figure1 --json`` runs in-process through ``repro.cli.main`` with
stdout captured: all ten registered rows at their declared sizes, serial
backend, no result cache.  The loop is closed; every sweep gets a new sweep
seed drawn from the workload seed.  Each record is checked afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from typing import Any

from common import digest, median, self_peak_rss_mb, signal_ready, spans_file
from spans import Tracer, patch_solver_layers

#: Slack on rounds and space, the same as benchmarks/conftest.py applies
#: (ROUND_SLACK, ROUND_ADDITIVE_SLACK, SPACE_SLACK).
ROUND_SLACK = 8.0
ROUND_ADDITIVE_SLACK = 8.0
SPACE_SLACK = 64.0
#: The metric each row's round claim is checked on, as in benchmarks/bench_fig1_*.py.
ROUND_KEY = {
    "fig1-matching": "sampling_iterations",
    "fig1-matching-mu0": "sampling_iterations",
    "fig1-mis": "sweeps",
    "fig1-maximal-clique": "sweeps",
}

_INSTANCE = ["densified_graph", "random_frequency_bounded_instance", "random_coverage_instance"]
_DRIVERS = [
    "mpc_weighted_vertex_cover",
    "mpc_weighted_set_cover",
    "mpc_greedy_set_cover",
    "mpc_maximal_independent_set",
    "mpc_maximal_independent_set_simple",
    "mpc_maximal_clique",
    "mpc_weighted_matching",
    "mpc_weighted_b_matching",
    "mpc_vertex_colouring",
    "mpc_edge_colouring",
]
_BASELINES = {
    "exact_matching": "baselines.exact",
    "lp_vertex_cover_bound": "baselines.lp",
    "lp_set_cover_bound": "baselines.lp",
    "fractional_matching_bound": "baselines.lp",
    "filtering_unweighted_matching": "baselines.other",
    "filtering_vertex_cover": "baselines.other",
    "greedy_b_matching": "baselines.other",
    "greedy_colouring": "baselines.other",
    "greedy_matching": "baselines.other",
    "greedy_set_cover": "baselines.other",
    "luby_mis": "baselines.other",
    "misra_gries_edge_colouring": "baselines.other",
}
_CERTIFICATES = [
    "is_vertex_cover",
    "is_cover",
    "is_matching",
    "is_b_matching",
    "is_maximal_independent_set",
    "is_maximal_clique",
    "is_proper_vertex_colouring",
    "is_proper_edge_colouring",
]


def setup(seed: int) -> Any:
    """Imports, including the ones the baselines make lazily."""
    import networkx  # noqa: F401
    from scipy.optimize import linprog  # noqa: F401

    import repro.cli

    signal_ready()
    return repro.cli


def _sweep(cli: Any, seed: int) -> tuple[float, float, int, str]:
    """Wall seconds, CPU seconds, exit code and stdout of one sweep.

    A sweep that raises counts as failed (exit code -1), as it would for a
    reader whose command crashed; the loop goes on.
    """
    out = io.StringIO()
    started, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["figure1", "--json", "--seed", str(seed)])
    except Exception as exc:  # noqa: BLE001 - reported as a failed sweep
        code = -1
        print(f"sweep {seed} raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return time.perf_counter() - started, time.process_time() - cpu, code, out.getvalue()


def check_records(text: str, expected: list[str]) -> dict[str, list[str]]:
    """Problems per row of one sweep's JSON output; empty when every row passes."""
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        return {row: [f"output is not JSON: {exc}"] for row in expected}
    found = [record.get("experiment") for record in records]
    if found != expected:
        return {row: [f"rows {found} != {expected}"] for row in expected}
    problems = {record["experiment"]: _check_record(record) for record in records}
    return {row: listed for row, listed in problems.items() if listed}


def _check_record(record: dict[str, Any]) -> list[str]:
    metrics, bounds = record["metrics"], record["bounds"]
    problems = [] if record["valid"] is True else ["certificate check failed"]
    approx = bounds.get("approximation")
    for key, value in metrics.items():
        if not key.startswith("ratio_vs_") or approx is None:
            continue
        # b-matching compares against greedy, itself a 2-approximation.
        limit = 2.0 * approx if key == "ratio_vs_greedy" else approx
        if value > limit + 1e-9:
            problems.append(f"{key}={value} exceeds {limit}")
    if "colours" in bounds and metrics["colours_used"] > bounds["colours"]:
        problems.append(f"colours_used={metrics['colours_used']} exceeds {bounds['colours']}")
    if "rounds" in bounds:
        key = ROUND_KEY.get(record["experiment"], "rounds")
        limit = ROUND_SLACK * bounds["rounds"] + ROUND_ADDITIVE_SLACK
        if metrics[key] > limit:
            problems.append(f"{key}={metrics[key]} exceeds {limit}")
    if "space_per_machine" in bounds:
        limit = SPACE_SLACK * bounds["space_per_machine"]
        if metrics["max_space_per_machine"] > limit:
            problems.append(f"space={metrics['max_space_per_machine']} exceeds {limit}")
    return problems


def _install(tracer: Tracer, cli: Any, counts: dict[str, float]) -> None:
    import repro.backends.serial as serial
    import repro.experiments.figure1 as figure1

    def count_rounds(result: Any) -> None:
        metrics = result[1]
        counts["rounds"] += metrics.num_rounds
        counts["words"] += metrics.total_communication

    tracer.patch(cli, "main", "cli.main", "cli")
    tracer.patch(cli, "run_figure1", "dispatch.run_figure1", "dispatch")
    tracer.patch(serial, "execute_point", "row", "experiments", op_of=lambda p: p.experiment)
    for name in _INSTANCE:
        tracer.patch(figure1, name, "instance." + name, "instance")
    for name in _DRIVERS:
        tracer.patch(figure1, name, "core." + name, "core", on_return=count_rounds)
    for name, label in _BASELINES.items():
        tracer.patch(figure1, name, label, "baselines")
    for name in _CERTIFICATES:
        tracer.patch(figure1, name, "certificates." + name, "certificates")
    patch_solver_layers(tracer)


def run(cli: Any, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    from repro.registry import iter_algorithms

    expected = [spec.experiment for spec in iter_algorithms()]
    seeds = random.Random(seed)
    times: list[float] = []
    cpu_times: list[float] = []
    traced_times: list[float] = []
    outputs: list[tuple[int, int, str]] = []
    tracer = Tracer()
    counts: dict[str, float] = {"rounds": 0.0, "words": 0.0}
    first_counts: dict[str, float] = {}
    round_calls = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not times:
        sweep_seed = seeds.randrange(2**31)
        elapsed, cpu, code, text = _sweep(cli, sweep_seed)
        times.append(elapsed)
        cpu_times.append(cpu)
        outputs.append((sweep_seed, code, text))
        if trace:
            # The traced sweep repeats the untraced one's seed, so the pair
            # differs only by tracing.
            _install(tracer, cli, counts)
            try:
                elapsed, _, code, text = _sweep(cli, sweep_seed)
            finally:
                tracer.restore()
            traced_times.append(elapsed)
            outputs.append((sweep_seed, code, text))
            if not first_counts:
                first_counts = dict(counts)
                round_calls = tracer.entries("mapreduce")
    failures: list[str] = []
    failed = 0
    for sweep_seed, code, text in outputs:
        problems = check_records(text, expected)
        if code != 0:
            problems = {row: [f"exit code {code}"] for row in expected}
        failed += len(problems)
        failures += [f"seed {sweep_seed} {row}: {p}" for row, ps in problems.items() for p in ps]
    result: dict[str, Any] = {
        "op_seconds": times,
        "op_cpu_seconds": cpu_times,
        "attempted": len(outputs) * len(expected),
        "failed": failed,
        "failures": failures[:20],
        "inputs_digest": digest([seed for seed, _, _ in outputs]),
        "peak_rss_mb": self_peak_rss_mb(),
    }
    if trace:
        result["layers"] = _layers(tracer, expected, traced_times, times, first_counts, round_calls)
        result["traced_ops"] = len(traced_times)
        tracer.dump(spans_file("fig1"))
    return result


def _layers(
    tracer: Tracer,
    expected: list[str],
    traced: list[float],
    untraced: list[float],
    counts: dict[str, float],
    round_calls: int,
) -> dict[str, float]:
    sweeps = len(traced)
    by_layer, by_name = tracer.totals()
    rows = tracer.inclusive("row")
    ms = 1000.0 / sweeps
    layers = {f"{layer}_ms": seconds * ms for layer, seconds in by_layer.items()}
    layers.update(
        {f"{name}_ms": seconds * ms for name, seconds in by_name.items() if "." in name}
    )
    for experiment in expected:
        layers[f"row.{experiment.removeprefix('fig1-')}_ms"] = rows[experiment] * ms
    covered = sum(seconds for layer, seconds in by_layer.items() if layer != "experiments")
    layers["span_coverage"] = covered / sum(traced)
    layers["trace_overhead_share"] = median([t / u for t, u in zip(traced, untraced)]) - 1.0
    layers["rounds"] = counts.get("rounds", 0.0)
    layers["words"] = counts.get("words", 0.0)
    layers["round_calls"] = float(round_calls)
    return layers
