"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fig1|mpc|svc --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

``fig1`` is the Figure-1 sweep through ``repro.cli.main``; ``mpc`` calls the
paper's MPC drivers directly on large instances; ``svc`` drives a live
``repro serve`` with open-loop traffic.  See perfbench/README.md for why
each exists and what every metric means.

A run prints human-readable lines (every metric of the workload by name,
unit and sample count) and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1`` (a
separate run that wraps each layer in spans).  It exits non-zero when any
output check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
from typing import Any

from common import (
    COLD_STARTS,
    ROOT,
    SRC,
    WORK,
    BenchError,
    detail,
    final_line,
    mean,
    median,
    pid_peak_rss_mb,
    require_program,
    run_worker,
    tail,
)

WORKLOADS = ("fig1", "mpc", "svc")


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric names and units, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    )


class Outcome:
    """What one workload run measured, before it is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.end_to_end: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.layer_samples = 0
        self.lines: list[str] = []

    def add(self, name: str, value: float, unit: str, samples: int | str) -> None:
        self.lines.append(detail(name, value, unit, samples))


# --------------------------------------------------------------------------- #
# fig1 and mpc: a worker process measures, this process times its set-up
# --------------------------------------------------------------------------- #
def run_in_worker(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    args = [workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    setups = []
    if not trace:
        for _ in range(COLD_STARTS - 1):
            setups.append(run_worker([*args, "--setup-only"], timeout=120)[0])
    setup, result = run_worker(args, timeout=150)
    setups.append(setup)
    assert result is not None
    out = Outcome()
    out.attempted, out.failed, out.failures = result["attempted"], result["failed"], result["failures"]
    ops = result["op_seconds"]
    op_name = "sweep_s" if workload == "fig1" else "pass_s"
    cpu = result["op_cpu_seconds"]
    out.end_to_end = {
        "setup_s": median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "p50_ms": 1000.0 * median(ops),
        "cpu_ms": 1000.0 * median(cpu),
    }
    out.add("setup_s", median(setups), "s", len(setups))
    out.add("peak_rss_mb", result["peak_rss_mb"], "MB", 1)
    out.add(op_name, median(ops), "s", len(ops))
    out.add(op_name.replace("_s", "_mean_s"), mean(ops), "s", len(ops))
    out.add(op_name.replace("_s", "_cpu_s"), median(cpu), "s", len(cpu))
    for row, values in result.get("call_seconds", {}).items():
        out.add(f"call.{row}_s", median(values), "s", len(values))
    out.lines.append(f"  inputs digest {result['inputs_digest']}")
    out.layers = result.get("layers", {})
    out.layer_samples = result.get("traced_ops", 0)
    return out


# --------------------------------------------------------------------------- #
# svc: this process is the client, the server is a subprocess
# --------------------------------------------------------------------------- #
async def run_svc(seed: int, seconds: float, trace: bool) -> Outcome:
    import svc

    out = Outcome()
    if trace:
        return await _trace_svc(seed, seconds, out)
    setups = []
    server = None
    for k in range(COLD_STARTS):
        started = asyncio.get_running_loop().time()
        server, mix, warm = await svc.setup_server(seed, seconds, f"setup{k}", traced=False)
        setups.append(asyncio.get_running_loop().time() - started)
        if k < COLD_STARTS - 1:
            server.stop()
    assert server is not None
    try:
        window = await svc.run_window(server, mix)
        rss = pid_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    problems, _ = svc.verify(window)
    _svc_outcome(out, window, problems)
    hot = svc.latencies([s for s in window.samples if s.hot])
    cpu_ms = 1000.0 * window.server_cpu_seconds / len(window.samples)
    out.end_to_end = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "p50_ms": 1000.0 * median(hot),
        "cpu_ms": cpu_ms,
    }
    out.lines[:0] = [
        detail("setup_s", median(setups), "s", len(setups)),
        detail("peak_rss_mb", rss, "MB", 1),
        detail("server_cpu_per_request_ms", cpu_ms, "ms", len(window.samples)),
    ]
    out.lines.append(
        f"  warm-up: {warm['warm_requests']} requests, window settled: {warm['settled']}"
        f"; inputs digest {mix.digest()}"
    )
    return out


def _svc_outcome(out: Outcome, window: Any, problems: list[str]) -> None:
    import svc

    samples = window.samples
    all_lat = svc.latencies(samples)
    hot = svc.latencies([s for s in samples if s.hot])
    fresh = svc.latencies([s for s in samples if not s.hot])
    out.attempted = len(samples)
    out.failed = len({p.split(":")[0] for p in problems})
    out.failures = problems[:20]
    out.add("hit_p50_ms", 1000.0 * median(hot), "ms", len(hot))
    out.add("miss_p50_ms", 1000.0 * median(fresh), "ms", len(fresh))
    out.add("all_p50_ms", 1000.0 * median(all_lat), "ms", len(all_lat))
    out.add("all_mean_ms", 1000.0 * mean([x for x in all_lat if math.isfinite(x)]), "ms", len(all_lat))
    pct, value = tail(all_lat)
    out.add(f"p{pct:g}_ms" if math.isfinite(pct) else "tail_ms", 1000.0 * value, "ms", len(all_lat))
    start = window.metrics_before["batcher"]["policy"]["wait_seconds"]
    end = window.metrics_after["batcher"]["policy"]["wait_seconds"]
    steady = "steady" if start == end else "UNSTEADY (window moved)"
    out.lines.append(
        f"  batcher window {1000 * start:.3f} ms -> {1000 * end:.3f} ms: {steady}"
    )


async def _trace_svc(seed: int, seconds: float, out: Outcome) -> Outcome:
    """Untraced then traced server, same traffic, half the time each."""
    import svc

    windows = []
    for traced in (False, True):
        server, mix, _ = await svc.setup_server(seed, seconds / 2, f"trace{int(traced)}", traced)
        try:
            window = await svc.run_window(server, mix)
        finally:
            spans = server.stop()
        problems, exec_seconds = svc.verify(window)
        label = "traced" if traced else "untraced"
        windows.append((window, spans, [f"{label} {p}" for p in problems], exec_seconds))
    (plain, _, plain_problems, _), (window, spans, problems, exec_seconds) = windows
    _svc_outcome(out, window, plain_problems + problems)
    out.attempted = len(plain.samples) + len(window.samples)
    layers = {**svc.server_layers(window), **svc.client_layers(window, exec_seconds)}
    layers.update(svc.span_layers(spans, window))
    # Both servers got the same requests, so their CPU use compares directly.
    layers["trace_overhead_share"] = window.server_cpu_seconds / plain.server_cpu_seconds - 1.0
    busy = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] in ("parse", "render", "run_sweep")
        and window.start <= s["start"] <= window.end
    )
    layers["span_coverage"] = busy / (window.end - window.start)
    out.layers = layers
    out.layer_samples = len(window.samples)
    return out


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if workload == "svc":
        return asyncio.run(run_svc(seed, seconds, trace))
    return run_in_worker(workload, seed, seconds, trace)


def report(workload: str, out: Outcome, trace: bool) -> str:
    """Print the workload's lines; return its JSON result line."""
    print(f"[{workload}] {'traced' if trace else 'untraced'} run")
    for line in out.lines:
        print(line)
    share = out.failed / out.attempted if out.attempted else math.nan
    print(detail("failed_share", share, "ratio", out.attempted))
    for failure in out.failures:
        print(f"  FAILED {failure}")
    end_to_end, per_layer = declared_metrics()
    if trace:
        metrics = {name: (out.layers.get(name, 0.0), unit) for name, unit in per_layer.items()}
        for name, (value, unit) in metrics.items():
            print(detail(name, value, unit, out.layer_samples))
    else:
        metrics = {name: (out.end_to_end[name], unit) for name, unit in end_to_end.items()}
    correct = out.failed == 0 and out.attempted > 0
    return final_line(correct=correct, attempted=out.attempted, failed=out.failed, metrics=metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        require_program()
        # The svc client verifies responses against the library in-process.
        sys.path.insert(0, str(SRC))
        WORK.mkdir(exist_ok=True)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        lines = []
        failed = False
        for workload in workloads:
            out = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            lines.append(report(workload, out, bool(args.trace)))
            failed = failed or out.failed > 0 or out.attempted == 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
