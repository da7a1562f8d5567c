"""Workload ``svc``: the live solver service under open-loop traffic.

``python -m repro serve --port 0 --cache-dir <tmp>`` runs in a subprocess
with the documented quickstart config (batch backend, adaptive batching).
This process is the only client: one asyncio thread, two keep-alive
connections, Poisson arrivals at a fixed rate.  80% of requests repeat a hot
set (every algorithm x 2 seeds) warmed in set-up, so they are result-cache
reads; the other 20% carry a fresh seed, so they compute and write the
cache.  Every request is timed from when it was due, so a wait for a free
connection counts (no coordinated omission).  After the timed window every
200 body is compared byte for byte with ``solve_direct`` for the same body.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from common import (
    BenchError,
    ROOT,
    child_env,
    digest,
    fresh_dir,
    mean,
    median,
    pid_cpu_seconds,
    quantile,
)

RATE = 20.0
CONNECTIONS = 2
HOT_SHARE = 0.8
HOT_SEEDS_PER_ALGORITHM = 2
#: Graph rows run small, so every request stays under ~100 ms and the
#: adaptive batcher stays in one regime; set-cover rows keep their sizes.
GRAPH_N = 80
#: Fresh requests: the anchor algorithm takes a large share so that their
#: median lies inside its cost cluster (with b-matching, which costs about
#: the same at n=80), not in the gap between the five cheap rows and the
#: rest.  The other rows share the rest equally.  A cheap anchor also keeps
#: the server lightly loaded: with matching as the anchor, hits queued
#: behind computes and latencies moved 2-5x from seed to seed.
FRESH_ANCHOR = "vertex-cover"
FRESH_ANCHOR_SHARE = 0.45
#: The adaptive window moves once per control window of this many requests.
CONTROL_WINDOW = 32
WARMUP_LIMIT = 40 * CONTROL_WINDOW
LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def encode(body: dict[str, Any]) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _body(algorithm: str, kind: str, seed: int) -> bytes:
    body: dict[str, Any] = {"algorithm": algorithm, "seed": seed}
    if kind == "graph":
        body["params"] = {"n": GRAPH_N}
    return encode(body)


@dataclass
class Mix:
    hot: list[bytes]
    schedule: list[tuple[float, bytes, bool]]  # (due offset s, body, hot?)

    def digest(self) -> str:
        return digest([[round(due, 9), body.decode(), hot] for due, body, hot in self.schedule])


def make_mix(kinds: dict[str, str], seed: int, seconds: float) -> Mix:
    """Hot set and arrival schedule, all derived from ``seed``.

    Arrival times are a Poisson process at ``RATE`` conditioned on its
    count: ``RATE * seconds`` arrivals placed uniformly at random over the
    window.  The request mix is exact rather than drawn per request: hot
    bodies, fresh requests and each fresh algorithm hold fixed counts in a
    shuffled order, so runs differ in when requests arrive and in the
    instances behind fresh seeds, not in how much of each kind of work
    they carry.
    """
    rng = random.Random(seed)
    names = sorted(kinds)
    hot_seeds = rng.sample(range(1, 10_000), HOT_SEEDS_PER_ALGORITHM)
    hot = [_body(name, kinds[name], s) for name in names for s in hot_seeds]
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(round(RATE * seconds)))
    fresh_count = round((1.0 - HOT_SHARE) * len(dues))
    others = [name for name in names if name != FRESH_ANCHOR]
    anchor_count = round(FRESH_ANCHOR_SHARE * fresh_count)
    fresh_names = [FRESH_ANCHOR] * anchor_count + [
        others[i % len(others)] for i in range(fresh_count - anchor_count)
    ]
    hot_bodies = [hot[i % len(hot)] for i in range(len(dues) - fresh_count)]
    rng.shuffle(fresh_names)
    rng.shuffle(hot_bodies)
    kinds_in_order = [False] * fresh_count + [True] * len(hot_bodies)
    rng.shuffle(kinds_in_order)
    fresh_seed = 10_000 + rng.randrange(1_000_000) * 1_000
    schedule = []
    for due, is_hot in zip(dues, kinds_in_order):
        if is_hot:
            schedule.append((due, hot_bodies.pop(), True))
        else:
            name = fresh_names.pop()
            fresh_seed += 1
            schedule.append((due, _body(name, kinds[name], fresh_seed), False))
    return Mix(hot, schedule)


# --------------------------------------------------------------------------- #
# HTTP client
# --------------------------------------------------------------------------- #
class Connection:
    """One keep-alive HTTP/1.1 connection; reopened after the server closes it."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def request(
        self, method: str, path: str, body: bytes = b"", *, close: bool = False
    ) -> tuple[int, dict[str, str], bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        assert self.reader is not None
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            + ("Connection: close\r\n" if close else "")
            + "\r\n"
        )
        try:
            self.writer.write(head.encode("ascii") + body)
            await self.writer.drain()
            status_line = await self.reader.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            status = int(status_line.split()[1])
            headers: dict[str, str] = {}
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            payload = await self.reader.readexactly(int(headers.get("content-length", "0")))
        except (ConnectionError, asyncio.IncompleteReadError):
            await self.close()
            raise
        if close or headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None


async def fetch_json(host: str, port: int, path: str) -> Any:
    """GET on a fresh connection: an idle keep-alive one may hold a stale 408."""
    status, _, payload = await Connection(host, port).request("GET", path, close=True)
    if status != 200:
        raise BenchError(f"GET {path} returned {status}")
    return json.loads(payload)


# --------------------------------------------------------------------------- #
# Server lifecycle
# --------------------------------------------------------------------------- #
@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    spans_path: Path | None

    def stop(self) -> list[dict[str, Any]]:
        """SIGTERM, wait for the drain, and return the spans it wrote, if any."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if self.spans_path is None or not self.spans_path.exists():
            return []
        with open(self.spans_path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]


def start_server(cache_dir: Path, spans_path: Path | None) -> Server:
    serve = ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
    if spans_path is None:
        command = [sys.executable, "-m", "repro", *serve]
    else:
        launcher = Path(__file__).resolve().parent / "svc_launcher.py"
        command = [sys.executable, str(launcher), str(spans_path), *serve]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    found = LISTENING.search(line)
    if found is None:
        proc.kill()
        proc.communicate()
        raise BenchError(f"server did not start: {line!r}")
    return Server(proc, found.group(1), int(found.group(2)), spans_path)


async def _healthy(server: Server) -> None:
    for _ in range(200):
        try:
            await fetch_json(server.host, server.port, "/healthz")
            return
        except (OSError, BenchError):
            await asyncio.sleep(0.05)
    raise BenchError("server never became healthy")


async def _warm(server: Server, hot: list[bytes]) -> tuple[bool, int]:
    """Compute the hot set, then drive the adaptive window until it stops moving.

    Returns whether the window settled and how many warm-up requests it took.
    """
    conns = [Connection(server.host, server.port) for _ in range(CONNECTIONS)]

    async def loop(conn: Connection, offset: int, count: int) -> None:
        for i in range(count):
            body = hot[(offset + i) % len(hot)]
            status, _, payload = await conn.request("POST", "/solve", body)
            if status != 200:
                raise BenchError(f"warming {body!r} returned {status}: {payload[:200]!r}")

    sent = 0
    previous = None
    try:
        await loop(conns[0], 0, len(hot))
        while sent < WARMUP_LIMIT:
            half = CONTROL_WINDOW // CONNECTIONS
            await asyncio.gather(*(loop(c, i * half + sent, half) for i, c in enumerate(conns)))
            sent += CONTROL_WINDOW
            policy = (await fetch_json(server.host, server.port, "/metrics"))["batcher"]["policy"]
            state = (policy["adjustments"], policy["wait_seconds"])
            if previous is not None and state[0] > previous[0] and state[1] == previous[1]:
                return True, sent
            previous = state
        return False, sent
    finally:
        for conn in conns:
            await conn.close()


async def setup_server(mix_seed: int, seconds: float, tag: str, traced: bool) -> tuple[Server, Mix, dict[str, Any]]:
    """Spawn, wait for /healthz, warm the hot set and the batcher window."""
    work = fresh_dir(f"svc-{tag}")
    spans_path = work / "spans.jsonl" if traced else None
    server = start_server(work / "cache", spans_path)
    try:
        await _healthy(server)
        listing = await fetch_json(server.host, server.port, "/algorithms")
        kinds = {name: entry["kind"] for name, entry in listing.items()}
        mix = make_mix(kinds, mix_seed, seconds)
        settled, warm_requests = await _warm(server, mix.hot)
    except BaseException:
        server.stop()
        raise
    return server, mix, {"settled": settled, "warm_requests": warm_requests}


# --------------------------------------------------------------------------- #
# Timed window
# --------------------------------------------------------------------------- #
@dataclass
class Sample:
    body: bytes
    hot: bool
    due: float
    dispatched: float = math.nan
    sent: float = math.nan
    done: float = math.nan
    status: int = 0
    cache: str = ""
    payload: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error


@dataclass
class Window:
    samples: list[Sample]
    start: float
    end: float
    metrics_before: dict[str, Any]
    metrics_after: dict[str, Any]
    server_cpu_seconds: float


async def run_window(server: Server, mix: Mix) -> Window:
    before = await fetch_json(server.host, server.port, "/metrics")
    queue: asyncio.Queue[Sample | None] = asyncio.Queue()
    samples = [Sample(body, hot, 0.0) for _, body, hot in mix.schedule]
    cpu_before = pid_cpu_seconds(server.proc.pid)
    start = time.perf_counter() + 0.05

    async def generator() -> None:
        for sample, (offset, _, _) in zip(samples, mix.schedule):
            sample.due = start + offset
            delay = sample.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sample.dispatched = time.perf_counter()
            queue.put_nowait(sample)
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def connection() -> None:
        conn = Connection(server.host, server.port)
        while (sample := await queue.get()) is not None:
            sample.sent = time.perf_counter()
            try:
                sample.status, headers, sample.payload = await conn.request(
                    "POST", "/solve", sample.body
                )
                sample.cache = headers.get("x-repro-cache", "")
            except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
                sample.error = f"{type(exc).__name__}: {exc}"
            sample.done = time.perf_counter()
        await conn.close()

    await asyncio.gather(generator(), *(connection() for _ in range(CONNECTIONS)))
    end = time.perf_counter()
    cpu = pid_cpu_seconds(server.proc.pid) - cpu_before
    after = await fetch_json(server.host, server.port, "/metrics")
    return Window(samples, start, end, before, after, cpu)


def verify(window: Window) -> tuple[list[str], dict[str, list[float]]]:
    """Byte-compare every 200 body with solve_direct; time each direct solve."""
    from repro.service.api import parse_solve_request, solve_direct

    expected: dict[bytes, bytes] = {}
    exec_seconds: dict[str, list[float]] = {}
    for sample in window.samples:
        if sample.body in expected:
            continue
        request = parse_solve_request(sample.body)
        started = time.perf_counter()
        expected[sample.body] = solve_direct(request)
        exec_seconds.setdefault(request.algorithm, []).append(time.perf_counter() - started)
    problems = []
    for index, sample in enumerate(window.samples):
        if not sample.ok:
            problems.append(f"request {index}: status {sample.status} {sample.error}".strip())
        elif sample.payload != expected[sample.body]:
            problems.append(f"request {index}: body differs from solve_direct")
        elif sample.hot and sample.cache != "hit":
            problems.append(f"request {index}: hot-set response was a cache {sample.cache!r}")
    return problems, exec_seconds


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def latencies(samples: list[Sample]) -> list[float]:
    """Seconds from due to done; a failed request is slower than any success."""
    return [s.done - s.due if s.ok else math.inf for s in samples]


def server_layers(window: Window) -> dict[str, float]:
    """Per-layer numbers from /metrics deltas over the timed window."""
    before, after = window.metrics_before, window.metrics_after
    layers: dict[str, float] = {}
    total_count = total_seconds = 0.0
    for name, stats in after["algorithms"].items():
        old = before["algorithms"].get(name, {"count": 0, "seconds_total": 0.0})
        count = stats["count"] - old["count"]
        seconds = stats["seconds_total"] - old["seconds_total"]
        if count:
            layers[f"server.{name}_mean_ms"] = 1000.0 * seconds / count
        total_count += count
        total_seconds += seconds
    layers["server_mean_ms"] = 1000.0 * total_seconds / total_count if total_count else 0.0
    batches = after["batches_total"] - before["batches_total"]
    points = after["batched_points_total"] - before["batched_points_total"]
    layers["batch_size_mean"] = points / batches if batches else 0.0
    layers["batch_wait_start_ms"] = 1000.0 * before["batcher"]["policy"]["wait_seconds"]
    layers["batch_wait_end_ms"] = 1000.0 * after["batcher"]["policy"]["wait_seconds"]
    hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
    misses = after["result_cache"]["misses"] - before["result_cache"]["misses"]
    layers["cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return layers


def client_layers(window: Window, exec_seconds: dict[str, list[float]]) -> dict[str, float]:
    done = [s for s in window.samples if s.ok]
    waits = [s.sent - s.due for s in window.samples]
    layers = {
        "conn_wait_p50_ms": 1000.0 * median(waits),
        "conn_wait_p99_ms": 1000.0 * quantile(waits, 0.99),
        "generator_lag_ms": 1000.0 * mean([s.dispatched - s.due for s in window.samples]),
        "wire_ms": 1000.0 * mean([s.done - s.sent for s in done])
        - server_layers(window)["server_mean_ms"],
    }
    for name, values in exec_seconds.items():
        layers[f"exec.{name}_ms"] = 1000.0 * mean(values)
    return layers


def span_layers(spans: list[dict[str, Any]], window: Window) -> dict[str, float]:
    """Mean milliseconds per call of each wrapped service function in the window."""
    inside = [s for s in spans if window.start <= s["start"] <= window.end]
    layers = {}
    for name in ("parse", "render", "cache_load", "cache_store", "execute"):
        durations = [s["end"] - s["start"] for s in inside if s["name"] == name]
        layers[f"{name}_ms"] = 1000.0 * mean(durations) if durations else 0.0
    return layers
