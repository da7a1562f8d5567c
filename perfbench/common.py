"""Plumbing shared by the workloads: paths, statistics, child processes, output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Sequence

#: The checkout the benchmark runs in: the program's sources are under src/.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Scratch space for one run (server caches, span files); inside the checkout.
WORK = ROOT / ".perfbench"

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "

#: How many fresh interpreters each run sets up; setup_s is their median.
COLD_STARTS = 3


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an output check failing)."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"the program's sources are missing: no {SRC / 'repro'}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spans_file(workload: str) -> Path:
    """Where a traced run leaves its spans, one JSON object per line."""
    WORK.mkdir(exist_ok=True)
    return WORK / f"spans-{workload}.jsonl"


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def tail(values: Sequence[float]) -> tuple[float, float]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it.

    Returns ``(percentile, value)``; ``(nan, nan)`` when even p75 has fewer
    than ten samples beyond it.
    """
    for pct in (99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            return pct, quantile(values, pct / 100.0)
    return math.nan, math.nan


def digest(payload: Any) -> str:
    """Short sha256 of bytes, or of a JSON-able value in canonical form."""
    if not isinstance(payload, (bytes, bytearray)):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a process has used, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def pid_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# --------------------------------------------------------------------------- #
# Worker processes (fig1, mpc): setup timed from a fresh interpreter
# --------------------------------------------------------------------------- #
def signal_ready() -> None:
    print(READY, flush=True)


def emit_result(payload: dict[str, Any]) -> None:
    print(RESULT + json.dumps(payload, sort_keys=True), flush=True)


def run_worker(args: Sequence[str], *, timeout: float) -> tuple[float, dict[str, Any] | None]:
    """Start ``perfbench/worker.py ARGS`` in a fresh interpreter.

    Returns the seconds from spawn until the worker reported ready, and the
    result it printed (``None`` for a set-up-only worker).
    """
    command = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    setup = math.nan
    result = None
    # Reading stdout blocks until the worker exits, so a hung worker is
    # killed by a timer rather than by a wait timeout.
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith(READY) and math.isnan(setup):
                setup = time.perf_counter() - started
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not exit") from None
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    if math.isnan(setup):
        raise BenchError(f"worker {' '.join(args)} never reported ready")
    return setup, result


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
def detail(name: str, value: float, unit: str, samples: int | str) -> str:
    """One human-readable metric line (the JSON result line is separate)."""
    return f"  {name:<28s} {value:>12.4f} {unit:<6s} n={samples}"


def final_line(
    *, correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]
) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
        sort_keys=False,
    )
