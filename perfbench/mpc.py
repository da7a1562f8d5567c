"""Workload ``mpc``: the paper's MPC drivers on large instances, called directly.

Instances are built once in set-up from the workload seed, each sized so
one call takes roughly 0.04-0.3 s on a 2-core x86 box.  One pass calls the
ten drivers in order (matching twice: µ=0.25 and the Appendix-C η=n
configuration).  A certificate check follows every call, outside the timed
region.  The loop is closed.  No quality baseline runs here, so a change to
``baselines`` must read "no change" on this workload.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

import numpy as np

from common import digest, median, self_peak_rss_mb, signal_ready, spans_file
from spans import Tracer, patch_solver_layers

#: Graph drivers: densified graphs with c = 0.45 (n=4000 gives m≈167k).
C = 0.45
N_GRAPH = 4000
N_B_MATCHING = 1500
#: Edge colouring is sized down: its local Misra-Gries step is the slow part.
N_EDGE_COLOURING = 500


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def setup(seed: int) -> dict[str, Any]:
    """Imports plus instance build; everything derives from ``seed``."""
    import repro

    started = time.perf_counter()
    graph = repro.densified_graph(N_GRAPH, C, _rng(seed, 0), weights="uniform")
    state = {
        "repro": repro,
        "graph": graph,
        "vertex_weights": _rng(seed, 1).uniform(1.0, 20.0, size=N_GRAPH),
        "b_graph": repro.densified_graph(N_B_MATCHING, C, _rng(seed, 2), weights="uniform"),
        "edge_graph": repro.densified_graph(N_EDGE_COLOURING, C, _rng(seed, 3)),
        "f_instance": repro.random_frequency_bounded_instance(4000, 40000, 4, _rng(seed, 4)),
        "greedy_instance": repro.random_coverage_instance(3000, 600, _rng(seed, 5), density=0.08),
    }
    state["build_seconds"] = time.perf_counter() - started
    signal_ready()
    return state


def calls(s: dict[str, Any]) -> list[tuple[str, Callable[..., Any], tuple, dict, Callable[[Any], bool]]]:
    """(row, driver, args, kwargs, certificate check) for the ten calls of a pass."""
    r = s["repro"]
    g, gb, ge = s["graph"], s["b_graph"], s["edge_graph"]
    fi, gi = s["f_instance"], s["greedy_instance"]
    return [
        ("vertex-cover", r.mpc_weighted_vertex_cover, (g, s["vertex_weights"], 0.25), {},
         lambda res: r.is_vertex_cover(g, res.chosen_sets)),
        ("set-cover", r.mpc_weighted_set_cover, (fi, 0.25), {},
         lambda res: r.is_cover(fi, res.chosen_sets)),
        ("set-cover-greedy", r.mpc_greedy_set_cover, (gi, 0.4), {"epsilon": 0.2},
         lambda res: r.is_cover(gi, res.chosen_sets)),
        ("mis", r.mpc_maximal_independent_set, (g, 0.3), {},
         lambda res: r.is_maximal_independent_set(g, res.vertices)),
        ("maximal-clique", r.mpc_maximal_clique, (g, 0.35), {},
         lambda res: r.is_maximal_clique(g, res.vertices)),
        ("matching", r.mpc_weighted_matching, (g, 0.25), {},
         lambda res: r.is_matching(g, res.edge_ids)),
        # Appendix C: η = n, with a tiny µ for the space accounting.
        ("matching-mu0", r.mpc_weighted_matching, (g, 0.05), {"eta": N_GRAPH},
         lambda res: r.is_matching(g, res.edge_ids)),
        ("b-matching", r.mpc_weighted_b_matching, (gb, 3, 0.25), {"epsilon": 0.15},
         lambda res: r.is_b_matching(gb, res.edge_ids, 3)),
        ("vertex-colouring", r.mpc_vertex_colouring, (g, 0.2), {},
         lambda res: r.is_proper_vertex_colouring(g, res.colours)),
        ("edge-colouring", r.mpc_edge_colouring, (ge, 0.2), {},
         lambda res: r.is_proper_edge_colouring(ge, res.colours)),
    ]


def _inputs_digest(s: dict[str, Any]) -> str:
    arrays = []
    for key in ("graph", "b_graph", "edge_graph"):
        graph = s[key]
        arrays += [graph.edge_u, graph.edge_v, graph.weights]
    arrays.append(s["vertex_weights"])
    for key in ("f_instance", "greedy_instance"):
        instance = s[key]
        arrays += [*instance.set_incidence(), instance.weights]
    return digest(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))


def _pass(
    table: list[tuple], seed: int, index: int, wrap: Callable[[str, Any], Any] | None
) -> tuple[list[float], float, list[tuple[str, Any, Any]]]:
    """One timed pass: wall seconds per call, CPU seconds of the calls, and
    (row, result, metrics) per call."""
    seconds, cpu, outcomes = [], 0.0, []
    for call_index, (row, driver, args, kwargs, _) in enumerate(table):
        fn = wrap(row, driver) if wrap is not None else driver
        rng = _rng(seed, 100 + index, call_index)
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            result, metrics = fn(*args, rng, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a raising driver fails its call
            print(f"{row} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            result = metrics = None
        seconds.append(time.perf_counter() - started)
        cpu += time.process_time() - cpu_started
        outcomes.append((row, result, metrics))
    return seconds, cpu, outcomes


def run(s: dict[str, Any], seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    table = calls(s)
    checks = {row: check for row, _, _, _, check in table}
    passes: list[float] = []
    cpu_passes: list[float] = []
    traced_passes: list[float] = []
    call_seconds: dict[str, list[float]] = {row: [] for row, *_ in table}
    attempted = failed = 0
    failures: list[str] = []
    check_seconds = 0.0
    first_counts: dict[str, float] = {}
    tracer = Tracer()

    def wrap(row: str, driver: Any) -> Any:
        return tracer.wrapped(driver, "core." + row, "core", op_of=lambda *a: row)

    def verify(outcomes: list[tuple[str, Any, Any]], index: int) -> None:
        nonlocal attempted, failed, check_seconds
        started = time.perf_counter()
        for row, result, _ in outcomes:
            attempted += 1
            if result is None or not checks[row](result):
                failed += 1
                failures.append(f"pass {index} {row}: no valid certificate")
        check_seconds += time.perf_counter() - started

    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < seconds or not passes:
        times, cpu, outcomes = _pass(table, seed, index, None)
        passes.append(sum(times))
        cpu_passes.append(cpu)
        for (row, *_), t in zip(table, times):
            call_seconds[row].append(t)
        verify(outcomes, index)
        if trace:
            patch_solver_layers(tracer)
            try:
                times, _, outcomes = _pass(table, seed, index, wrap)
            finally:
                tracer.restore()
            traced_passes.append(sum(times))
            verify(outcomes, index)
            if not first_counts:
                for row, _, metrics in outcomes:
                    if metrics is not None:
                        first_counts[f"rounds.{row}"] = float(metrics.num_rounds)
                        first_counts[f"words.{row}"] = float(metrics.total_communication)
                first_counts["round_calls"] = float(tracer.entries("mapreduce"))
        index += 1
    result: dict[str, Any] = {
        "op_seconds": passes,
        "op_cpu_seconds": cpu_passes,
        "call_seconds": call_seconds,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "inputs_digest": _inputs_digest(s),
        "peak_rss_mb": self_peak_rss_mb(),
    }
    if trace:
        tracer.dump(spans_file("mpc"))
        result["traced_ops"] = len(traced_passes)
        result["layers"] = _layers(
            tracer, traced_passes, passes, first_counts, s["build_seconds"], check_seconds
        )
    return result


def _layers(
    tracer: Tracer,
    traced: list[float],
    untraced: list[float],
    counts: dict[str, float],
    build_seconds: float,
    check_seconds: float,
) -> dict[str, float]:
    per_pass = 1000.0 / len(traced)
    by_layer, by_name = tracer.totals()
    layers = {f"{layer}_ms": seconds * per_pass for layer, seconds in by_layer.items()}
    layers.update({f"{name}_ms": seconds * per_pass for name, seconds in by_name.items()})
    layers.update(counts)
    layers["rounds"] = sum(v for k, v in counts.items() if k.startswith("rounds."))
    layers["words"] = sum(v for k, v in counts.items() if k.startswith("words."))
    layers["instance_ms"] = build_seconds * 1000.0
    # Checks run outside the timed pass; both passes of a pair are checked.
    layers["certificates_ms"] = check_seconds * 1000.0 / (len(traced) + len(untraced))
    layers["span_coverage"] = sum(by_layer.values()) / sum(traced)
    layers["trace_overhead_share"] = median([t / u for t, u in zip(traced, untraced)]) - 1.0
    return layers
