"""Replay a request trace against a live service and measure the tail.

The :class:`Runner` is an open-loop load generator: every request fires at
its scheduled trace offset (as close as the client can manage — the
achieved fidelity is reported as ``max_schedule_lag``), whether or not
earlier responses have arrived.  That is the property that makes a load
test honest: a server falling behind faces the configured arrival rate,
not a politely waiting client.  Closed-loop generators hide saturation —
the effect Cydonia's replay-rate experiments and the serving literature
call coordinated omission.

Mechanics: ``connections`` worker threads each own one persistent
keep-alive :class:`http.client.HTTPConnection` and pull requests, in
arrival order, from a shared queue; each worker sleeps until its request's
offset, fires, and records ``(status, latency)`` into thread-local
accumulators that are merged into one :class:`~repro.loadgen.report.
SampleReport` at the end.  A broken keep-alive connection is re-opened
once per request before counting a transport error (the server is allowed
to drop idle/slow connections; see ``READ_TIMEOUT`` in
:mod:`repro.service.server`).  Each connection has at most one request in
flight.

With ``config.verify`` the runner pre-computes the direct-library golden
bytes for every *distinct* request body (via
:func:`repro.service.api.solve_direct`) and counts served 200 bodies that
differ — the service's byte-identity guarantee, checked under load.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
import urllib.parse
from typing import TYPE_CHECKING, Any

from .report import SampleReport
from .traces import ReplayConfig, RequestTrace

if TYPE_CHECKING:
    from ..service.server import ServiceConfig

__all__ = ["Runner", "run_replay"]

_HEADERS = {"Content-Type": "application/json"}


def _canonical(body: Any) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


class _Worker:
    """One replay thread: a persistent connection plus local accumulators."""

    def __init__(self, runner: "Runner") -> None:
        self.runner = runner
        self.conn: http.client.HTTPConnection | None = None
        self.statuses: list[tuple[int, float]] = []
        self.transport_errors = 0
        self.mismatches = 0
        self.max_lag = 0.0

    def _connect(self) -> http.client.HTTPConnection:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                self.runner.host, self.runner.port, timeout=self.runner.config.timeout
            )
        return self.conn

    def _exchange(self, payload: str) -> tuple[int, bytes]:
        conn = self._connect()
        try:
            conn.request("POST", "/solve", payload, self.runner._headers)
            response = conn.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            # The server may legitimately drop a kept-alive connection
            # (idle timeout, shed); one fresh connection gets one retry.
            self.close()
            conn = self._connect()
            conn.request("POST", "/solve", payload, self.runner._headers)
            response = conn.getresponse()
            return response.status, response.read()

    def run(self, started: float) -> None:
        while True:
            try:
                item = self.runner._work.get_nowait()
            except queue.Empty:
                break
            at, payload, key = item
            now = time.monotonic()
            due = started + at
            if now < due:
                time.sleep(due - now)
            else:
                self.max_lag = max(self.max_lag, now - due)
            fire = time.perf_counter()
            try:
                status, body = self._exchange(payload)
            except (http.client.HTTPException, OSError):
                self.transport_errors += 1
                continue
            self.statuses.append((status, time.perf_counter() - fire))
            goldens = self.runner._goldens
            if goldens is not None and status == 200 and body != goldens.get(key):
                self.mismatches += 1
        self.close()

    def close(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self.conn = None


class Runner:
    """Replay traces against one ``host:port`` service endpoint."""

    def __init__(
        self, host: str, port: int, *, config: ReplayConfig | None = None
    ) -> None:
        self.host = host
        self.port = int(port)
        self.config = config or ReplayConfig()
        self._headers = dict(_HEADERS)
        if self.config.deadline_ms is not None:
            self._headers["X-Repro-Deadline-Ms"] = str(float(self.config.deadline_ms))
        self._work: queue.Queue[tuple[float, str, str]] = queue.Queue()
        self._goldens: dict[str, bytes] | None = None

    # ------------------------------------------------------------------ #
    # Service-side observation
    # ------------------------------------------------------------------ #
    def fetch_metrics(self) -> dict[str, Any] | None:
        """Best-effort ``GET /metrics`` snapshot (None if unreachable)."""
        try:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
            try:
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                if response.status != 200:
                    return None
                return json.loads(response.read())
            finally:
                conn.close()
        except (OSError, ValueError, http.client.HTTPException):
            return None

    def wait_healthy(self, timeout: float = 60.0) -> None:
        """Poll ``/healthz`` until the service answers (readiness gate)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                time.sleep(0.05)
        raise RuntimeError(f"service at {self.host}:{self.port} never became healthy")

    @staticmethod
    def _server_delta(
        before: dict[str, Any] | None, after: dict[str, Any] | None
    ) -> dict[str, Any] | None:
        """Per-replay server-side counters: the /metrics delta over the run."""
        if not before or not after:
            return None
        batches = after["batches_total"] - before["batches_total"]
        points = after["batched_points_total"] - before["batched_points_total"]
        delta = {
            "batches_total": batches,
            "batched_points_total": points,
            "batch_size_mean": (points / batches) if batches else 0.0,
            "batch_size_max": after["batch_size_max"],
            "rejected_total": after.get("rejected_total", 0) - before.get("rejected_total", 0),
            "deadline_timeouts_total": (
                after.get("deadline_timeouts_total", 0)
                - before.get("deadline_timeouts_total", 0)
            ),
            "errors_total": after["errors_total"] - before["errors_total"],
        }
        if "batcher" in after:
            delta["batcher"] = after["batcher"]
        return delta

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def _compute_goldens(self, trace: RequestTrace) -> dict[str, bytes]:
        from ..service.api import parse_solve_request, solve_direct

        goldens: dict[str, bytes] = {}
        for request in trace.requests:
            key = _canonical(request.body)
            if key not in goldens:
                goldens[key] = solve_direct(parse_solve_request(request.body))
        return goldens

    def run(self, trace: RequestTrace) -> SampleReport:
        """Replay one trace; returns the measured :class:`SampleReport`."""
        prepared = self.config.prepare(trace)
        report = SampleReport(trace=dict(prepared.meta))
        report.offered_rate = prepared.mean_rate
        if not prepared.requests:
            return report
        # Goldens are computed *before* the clock starts so the in-process
        # solves don't steal CPU from the replay it is judging.
        self._goldens = self._compute_goldens(prepared) if self.config.verify else None
        if self._goldens is not None:
            report.golden_mismatches = 0
        for request in prepared.requests:
            # The wire body is the canonical rendering too: one encoding to
            # build, and what goes over the socket is exactly the golden key.
            canonical = _canonical(request.body)
            self._work.put((request.at, canonical, canonical))
        workers = [_Worker(self) for _ in range(max(1, self.config.connections))]
        before = self.fetch_metrics()
        started = time.monotonic()
        threads = [
            threading.Thread(target=worker.run, args=(started,), daemon=True)
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report.duration_seconds = time.monotonic() - started
        after = self.fetch_metrics()
        for worker in workers:
            for status, elapsed in worker.statuses:
                report.record(status, elapsed)
            for _ in range(worker.transport_errors):
                report.record_transport_error()
            if self._goldens is not None:
                report.golden_mismatches = (report.golden_mismatches or 0) + worker.mismatches
            report.max_schedule_lag = max(report.max_schedule_lag, worker.max_lag)
        report.server = self._server_delta(before, after)
        return report


def run_replay(
    trace: RequestTrace,
    *,
    url: str | None = None,
    config: ReplayConfig | None = None,
    service: ServiceConfig | None = None,
) -> SampleReport:
    """Replay ``trace`` against ``url``, or an in-process service if None.

    ``service`` configures the in-process
    :class:`~repro.service.server.SolverService` (ignored with ``url``).
    """
    if url is not None:
        parsed = urllib.parse.urlparse(url)
        runner = Runner(
            parsed.hostname or "127.0.0.1", parsed.port or 80, config=config
        )
        runner.wait_healthy()
        return runner.run(trace)
    from ..service.server import start_in_background

    with start_in_background(service) as handle:
        runner = Runner(handle.host, handle.port, config=config)
        runner.wait_healthy()
        return runner.run(trace)
