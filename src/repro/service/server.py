"""The always-on solver service: a stdlib-only asyncio HTTP server.

``repro serve`` binds this server; it speaks just enough HTTP/1.1
(keep-alive, ``Content-Length`` bodies) for load generators and ordinary
HTTP clients, with zero dependencies beyond the standard library.

Routes
------
``POST /solve``
    One JSON solve request (see :mod:`repro.service.api`).  After the
    admission check, a body the service has replayed from its
    :class:`~repro.backends.ResultCache` before is answered from the
    :class:`ReplyCache` on the event loop.  Any other body is parsed and,
    when the service has a result cache, looked up in it on a worker
    thread; a hit is answered from there.  Concurrent misses are
    micro-batched through :class:`~repro.service.batcher.MicroBatcher`
    into a single :func:`~repro.backends.run_sweep` call.  Either way the
    response body is canonical JSON, byte-identical to
    :func:`~repro.service.api.solve_direct` for the same request, and the
    ``X-Repro-Cache`` header says whether the result was replayed from
    the cache.
``GET /metrics``
    Request counts, batch sizes, cache hit rates, per-algorithm latency.
``GET /healthz``
    Liveness probe.
``GET /algorithms`` / ``GET /scenarios``
    The service's algorithm registry and workload scenario registry.

Worker mode (``repro worker``, ``worker=True``) adds the distributed
protocol's ``POST /register`` / ``/pull`` / ``/result`` endpoints backed by
a :class:`~repro.distributed.WorkerState`, and a ``distributed`` section in
``/metrics``; see :mod:`repro.distributed` and ``docs/DISTRIBUTED.md``.

``repro serve`` and ``repro worker`` shut down gracefully on SIGTERM (and
SIGINT): the listener closes, in-flight requests and the queued batcher
work drain, and only then does the process exit.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping

from ..backends import BACKENDS, ResultCache, SweepPoint
from ..backends.cache import EntryStamp
from ..datasets import SCENARIOS
from ..datasets.scenarios import FILE_PREFIX
from ..registry import iter_algorithms
from .adaptive import AdaptiveBatchPolicy
from .api import (
    ServiceError,
    SolveRequest,
    parse_solve_request,
    render_response,
    request_point,
)
from .batcher import MicroBatcher
from .metrics import ServiceMetrics

__all__ = ["ServiceConfig", "ServiceHandle", "SolverService", "serve", "start_in_background"]

#: Largest accepted request body (a solve request is tiny; anything bigger
#: is a client error, not a workload).
_MAX_BODY = 1 << 20

#: Seconds a connection may take to deliver one full request (also the
#: keep-alive idle limit).  Read on every request, so tests may shorten it.
READ_TIMEOUT = 30.0

#: Byte budget of a service's :class:`ReplyCache`, over request bodies plus
#: response bytes.  Read when a service is built, so tests may shrink it.
REPLY_CACHE_BYTES = 8 << 20

_JSON = [("Content-Type", "application/json")]
_HIT = _JSON + [("X-Repro-Cache", "hit")]


@dataclass(frozen=True)
class ServiceConfig:
    """The options ``repro serve``, ``repro worker`` and ``repro loadtest``'s
    in-process server share; each default and range check lives here only.

    ``backend`` / ``jobs``
        How each micro-batch (in worker mode, each pulled point) executes.
    ``cache_dir``
        :class:`~repro.backends.ResultCache` directory; a replay of a cached
        point is answered at admission, before the batcher.
    ``max_batch`` / ``batch_wait_ms``
        The largest micro-batch and how long a batch waits for company.
    ``adaptive`` / ``target_p99_ms``
        Latency-aware batching (on by default): the wait window shrinks when
        the observed p99 of computed requests drifts above target, and
        batches grow under saturation.  ``adaptive=False`` keeps
        ``(max_batch, batch_wait_ms)`` fixed.
    ``max_queue``
        Admission control: when this many solves are admitted and not yet
        answered, or this many points are still in the batcher (a solve
        that timed out leaves its point there until it runs), new solves
        are shed with ``429`` and a ``Retry-After`` hint.  ``0`` disables
        shedding.
    ``deadline_ms``
        Default per-request deadline; a request still unanswered when it
        expires gets ``504``.  Clients may tighten (never loosen) it with
        the ``X-Repro-Deadline-Ms`` header.  ``None`` or ``0`` means none.
    """

    backend: str = "batch"
    jobs: int | None = None
    cache_dir: str | None = None
    max_batch: int = 32
    batch_wait_ms: float = 5.0
    adaptive: bool = True
    target_p99_ms: float = 500.0
    max_queue: int = 1024
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {sorted(BACKENDS)}, not {self.backend!r}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.batch_wait_ms < 0:
            raise ValueError("batch_wait_ms must not be negative")
        if self.target_p99_ms <= 0:
            raise ValueError("target_p99_ms must be positive")
        if self.max_queue < 0:
            raise ValueError("max_queue must not be negative (0 disables shedding)")
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ValueError("deadline_ms must not be negative (0 means no deadline)")


class ReplyCache:
    """Response bytes of result-cache replays, keyed by the raw request body.

    Every row the service runs is seeded, so a request body fixes its
    response byte for byte; once a body has been replayed from a
    :class:`~repro.backends.ResultCache` entry, its reply can be sent again
    without a parse, a point digest, a file read or a render.  Each use
    checks the :class:`~repro.backends.cache.EntryStamp` of the entry it
    was read from, so deleting or replacing that ``*.json`` file drops the
    reply and the next request takes the ordinary path.  An LRU holding at
    most ``budget`` bytes of bodies plus replies; only the event loop
    touches it, so it takes no lock.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._entries: dict[bytes, tuple[str, bytes, EntryStamp]] = {}

    def get(self, body: bytes) -> tuple[str, bytes] | None:
        """``(algorithm, reply)`` for ``body``, or ``None``."""
        entry = self._entries.pop(body, None)
        if entry is None:
            return None
        if not entry[2].current():
            self.nbytes -= len(body) + len(entry[1])
            return None
        # Re-inserting moves the entry to the back of the eviction order.
        self._entries[body] = entry
        return entry[0], entry[1]

    def put(self, body: bytes, algorithm: str, reply: bytes, stamp: EntryStamp) -> None:
        """Keep ``reply``, replayed from the entry ``stamp`` names."""
        size = len(body) + len(reply)
        if size > self.budget:
            return
        old = self._entries.pop(body, None)
        if old is not None:
            self.nbytes -= len(body) + len(old[1])
        while self.nbytes + size > self.budget:
            oldest = next(iter(self._entries))
            self.nbytes -= len(oldest) + len(self._entries.pop(oldest)[1])
        self._entries[body] = (algorithm, reply, stamp)
        self.nbytes += size

    def __len__(self) -> int:
        return len(self._entries)


class SolverService:
    """Request handling + batching + metrics for one service instance.

    ``config`` holds the batching, shedding and deadline options (see
    :class:`ServiceConfig` and ``docs/SERVICE.md``); ``worker=True`` adds
    the distributed protocol's endpoints.
    """

    def __init__(self, config: ServiceConfig, *, worker: bool = False) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self.cache = ResultCache(config.cache_dir) if config.cache_dir else None
        self.replies = ReplyCache(REPLY_CACHE_BYTES)
        self.worker_state = None
        if worker:
            from ..distributed.worker import WorkerState

            self.worker_state = WorkerState(
                backend=config.backend, jobs=config.jobs, cache=self.cache
            )
        self._active_requests = 0
        self._admitted = 0
        self.deadline = config.deadline_ms / 1000.0 if config.deadline_ms else None
        policy = None
        if config.adaptive:
            wait = config.batch_wait_ms / 1000.0
            policy = AdaptiveBatchPolicy(
                target_p99=config.target_p99_ms / 1000.0,
                min_batch=1,
                max_batch=config.max_batch,
                initial_batch=min(8, config.max_batch),
                min_wait=0.0,
                max_wait=wait * 4.0,
                initial_wait=wait,
            )
        self.batcher = MicroBatcher(
            config,
            cache=self.cache,
            on_batch=self.metrics.record_batch,
            policy=policy,
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def handle(
        self, method: str, path: str, body: bytes,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        """Dispatch one request; returns ``(status, extra headers, body)``."""
        try:
            if path == "/solve":
                if method != "POST":
                    raise ServiceError("use POST for /solve", status=405)
                return await self._solve(body, headers or {})
            if path in ("/register", "/pull", "/result"):
                if self.worker_state is None:
                    raise ServiceError(
                        f"{path} needs worker mode; start this service with "
                        "`repro worker`",
                        status=404,
                    )
                if method != "POST":
                    raise ServiceError(f"use POST for {path}", status=405)
                return await self._worker_call(path, body)
            if method != "GET":
                raise ServiceError(f"use GET for {path}", status=405)
            if path == "/metrics":
                payload = self.metrics.snapshot()
                payload["batcher"] = self.batcher.stats()
                if self.worker_state is not None:
                    payload["distributed"] = self.worker_state.stats()
                return 200, _JSON, _dumps(payload)
            if path == "/healthz":
                return 200, _JSON, _dumps({"status": "ok"})
            if path == "/algorithms":
                listing = {
                    spec.name: spec.listing_payload() for spec in iter_algorithms()
                }
                return 200, _JSON, _dumps(listing)
            if path == "/scenarios":
                listing = {
                    name: {
                        "kind": scenario.kind,
                        "description": scenario.description,
                    }
                    for name, scenario in sorted(SCENARIOS.items())
                }
                return 200, _JSON, _dumps(listing)
            raise ServiceError(f"no such route {path!r}", status=404)
        except ServiceError as exc:
            self.metrics.record_error()
            return exc.status, _JSON, _dumps({"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - a solve failure is a 500
            self.metrics.record_error()
            return 500, _JSON, _dumps({"error": f"{type(exc).__name__}: {exc}"})

    def _backlog(self) -> int:
        """Solves the 429 bound counts: admitted, or still in the batcher.

        A solve counts from admission until it is answered, so the parse
        hop and the cache lookup cannot slip requests past the bound.  The
        batcher's depth covers the rest: a solve answered with ``504``
        leaves its point queued or executing until the batch runs it.
        """
        return max(self._admitted, self.batcher.queue_depth())

    def _retry_after(self) -> int:
        """Seconds a shed client should back off: backlog x compute p50.

        The p50 is of computed responses only: a cache hit is answered in
        well under a millisecond, so the p50 of all responses would say
        nothing about how long the admitted work takes to clear.
        """
        p50 = self.metrics.miss_latency.percentile(50.0)
        estimate = self._backlog() * max(p50, 0.001)
        return min(30, max(1, round(estimate)))

    def _deadline_for(self, headers: Mapping[str, str]) -> float | None:
        """Effective deadline: server default, tightened by the client header."""
        deadline = self.deadline
        raw = headers.get("x-repro-deadline-ms")
        if raw is not None:
            try:
                requested = float(raw) / 1000.0
            except ValueError:
                raise ServiceError("invalid X-Repro-Deadline-Ms header") from None
            if requested <= 0:
                raise ServiceError("X-Repro-Deadline-Ms must be positive")
            deadline = requested if deadline is None else min(deadline, requested)
        return deadline

    async def _solve(
        self, body: bytes, headers: Mapping[str, str]
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        self.metrics.record_request()
        deadline = self._deadline_for(headers)
        # Admission control *before* any work: a shed request must be cheap,
        # that is the whole point of shedding.
        if self.config.max_queue and self._backlog() >= self.config.max_queue:
            self.metrics.record_rejected()
            retry = [("Retry-After", str(self._retry_after()))]
            return 429, _JSON + retry, _dumps(
                {"error": "server overloaded; retry later", "retry_after": retry[0][1]}
            )
        self._admitted += 1
        try:
            return await self._answer(body, deadline)
        finally:
            self._admitted -= 1

    def _parse_and_replay(
        self, body: bytes
    ) -> tuple[SolveRequest, SweepPoint, bytes | None, float, EntryStamp | None]:
        """Parse a solve request and, on a result-cache hit, render it.

        Returns ``(request, point, payload, seconds, stamp)``: ``payload`` is
        the canonical response of a hit (``None`` on a miss or without a
        cache), ``seconds`` the time its lookup and render took, and
        ``stamp`` the hit's entry file as it was read.
        """
        request = parse_solve_request(body)
        point = request_point(request)
        started = time.perf_counter()
        hit = self.cache.load(point) if self.cache is not None else None
        if hit is None:
            return request, point, None, 0.0, None
        payload = render_response(request, hit)
        return request, point, payload, time.perf_counter() - started, hit.stamp

    async def _answer(
        self, body: bytes, deadline: float | None
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        # A body replayed from the result cache before is answered here,
        # on the loop: no hop, parse, digest, file read or render.
        started = time.perf_counter()
        kept = self.replies.get(body)
        if kept is not None:
            algorithm, reply = kept
            self.metrics.record_response(
                algorithm, time.perf_counter() - started, cached=True
            )
            return 200, _HIT, reply
        # Validation is off-loop: a first hit on a `file:` scenario
        # fingerprints and ingests the dataset, which must not stall every
        # other connection (health probes included) for the parse duration.
        # A cache hit is answered from the same hop; only misses queue.
        request, point, replay, seconds, stamp = (
            await asyncio.get_running_loop().run_in_executor(
                None, self._parse_and_replay, body
            )
        )
        if replay is not None:
            # A `file:` body names the dataset's path, not its bytes, so its
            # reply is never kept.
            if not (request.scenario or "").startswith(FILE_PREFIX):
                self.replies.put(body, request.algorithm, replay, stamp)
            self.metrics.record_response(request.algorithm, seconds, cached=True)
            return 200, _HIT, replay
        started = time.perf_counter()
        submission = self.batcher.submit(point)
        try:
            if deadline is not None:
                result = await asyncio.wait_for(submission, deadline)
            else:
                result = await submission
        except asyncio.TimeoutError:
            self.metrics.record_timeout()
            return 504, _JSON, _dumps(
                {"error": f"deadline of {deadline * 1000:.0f} ms exceeded"}
            )
        payload = render_response(request, result)
        self.metrics.record_response(
            request.algorithm, time.perf_counter() - started, cached=result.cached
        )
        headers_out = _JSON + [("X-Repro-Cache", "hit" if result.cached else "miss")]
        return 200, headers_out, payload

    async def _worker_call(
        self, path: str, body: bytes
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        """One distributed-protocol call against this worker's state."""
        from ..distributed.protocol import WorkerProtocolError

        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError:
            raise ServiceError("request body must be JSON") from None
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        state = self.worker_state
        sweep = payload.get("sweep")
        loop = asyncio.get_running_loop()
        try:
            if path == "/register":
                result = state.register(sweep)
            elif path == "/pull":
                points = payload.get("points")
                if not isinstance(points, list):
                    raise ServiceError("'points' must be a list")
                # Decoding imports experiment modules on first use — keep
                # that off the event loop like /solve's request parsing.
                result = await loop.run_in_executor(None, state.pull, sweep, points)
            else:
                acked = payload.get("acked") or []
                if not isinstance(acked, list):
                    raise ServiceError("'acked' must be a list")
                result = await loop.run_in_executor(None, state.collect, sweep, acked)
        except WorkerProtocolError as exc:
            raise ServiceError(str(exc)) from exc
        return 200, _JSON, _dumps(result)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                arrived: list[bytes] = []
                try:
                    request = await asyncio.wait_for(
                        _read_request(reader, arrived), READ_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    if not arrived:
                        # An idle keep-alive connection: no byte of a next
                        # request came, so there is nothing to answer —
                        # close without writing.
                        break
                    # Slow-loris: answer best-effort and drop — the read
                    # deadline covers one whole request, so a trickling
                    # client cannot pin a connection open forever.
                    writer.write(
                        _render_http(408, _JSON, _dumps({"error": "request timeout"}), False)
                    )
                    await writer.drain()
                    break
                except ServiceError as exc:
                    # Unparseable wire data: answer once, then drop the
                    # connection (the stream position is unreliable now).
                    self.metrics.record_error()
                    body = _dumps({"error": str(exc)})
                    writer.write(_render_http(exc.status, _JSON, body, False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                # Count the request while it is being answered (not while
                # the keep-alive connection idles on a read) so graceful
                # shutdown can wait for exactly the in-flight work.
                self._active_requests += 1
                try:
                    status, extra, payload = await self.handle(method, path, body, headers)
                    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                    writer.write(_render_http(status, extra, payload, keep_alive))
                    await writer.drain()
                finally:
                    self._active_requests -= 1
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # Event-loop shutdown with the connection parked on a read: end
            # quietly — re-raising makes asyncio's streams callback log a
            # spurious traceback for every open keep-alive connection.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def start(self, host: str, port: int) -> asyncio.Server:
        """Bind the server and start the batcher; returns the asyncio server."""
        self.batcher.start()
        if self.worker_state is not None:
            self.worker_state.start()
        return await asyncio.start_server(self._handle_connection, host, port)

    async def drain(self, timeout: float) -> bool:
        """Finish in-flight requests and queued work (graceful shutdown).

        Waits for every request currently being answered, everything the
        batcher has queued or executing, and — in worker mode — every
        pulled point still in the worker queue.  Idle keep-alive
        connections do not count as in-flight.  Returns ``False`` if the
        timeout elapsed with work still outstanding.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout)
        while self._active_requests > 0 or self.batcher.queue_depth() > 0:
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.01)
        if self.worker_state is not None:
            remaining = max(0.05, deadline - loop.time())
            return await loop.run_in_executor(
                None, self.worker_state.drain, remaining
            )
        return True

    async def aclose(self) -> None:
        if self.worker_state is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.worker_state.close
            )
        await self.batcher.aclose()


# --------------------------------------------------------------------------- #
# Wire helpers
# --------------------------------------------------------------------------- #
def _dumps(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _render_http(
    status: int, headers: list[tuple[str, str]], body: bytes, keep_alive: bool
) -> bytes:
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}"]
    lines += [f"{name}: {value}" for name, value in headers]
    lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader, arrived: list[bytes]
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed connection.

    The request's first byte is appended to ``arrived`` as soon as it is
    read, so a caller that times the read out can tell an idle connection
    from a partially received request.
    """
    try:
        first = await reader.read(1)
        if not first:
            return None
        arrived.append(first)
        line = first if first == b"\n" else first + await reader.readline()
    except (ConnectionResetError, asyncio.LimitOverrunError):
        return None
    try:
        method, target, _version = line.decode("ascii").split(None, 2)
    except ValueError:
        raise ServiceError("malformed request line", status=400) from None
    headers: dict[str, str] = {}
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        # The stream position after a malformed chunked body is unknowable;
        # refuse up front rather than risk desyncing a keep-alive stream.
        raise ServiceError(
            "chunked transfer encoding is not supported; send Content-Length",
            status=411,
        )
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ServiceError("invalid Content-Length header", status=400) from None
    if length < 0:
        raise ServiceError("invalid Content-Length header", status=400)
    if length > _MAX_BODY:
        raise ServiceError("request body too large", status=413)
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, headers, body


# --------------------------------------------------------------------------- #
# Running
# --------------------------------------------------------------------------- #
class ServiceHandle:
    """A service running on a background thread, bound to a free loopback port.

    Use as a context manager::

        with start_in_background(ServiceConfig(max_batch=8)) as handle:
            http.client.HTTPConnection(handle.host, handle.port) ...
    """

    host = "127.0.0.1"

    def __init__(self, service: SolverService) -> None:
        self.service = service
        self.port: int | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await self.service.start(self.host, 0)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            await self.service.aclose()

    def start(self, timeout: float = 30.0) -> "ServiceHandle":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service failed to start in time")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed: stop() is idempotent
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceHandle":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_in_background(config: ServiceConfig | None = None, *, worker: bool = False) -> ServiceHandle:
    """Start a :class:`SolverService` (default: ``ServiceConfig()``) on a daemon thread."""
    return ServiceHandle(SolverService(config or ServiceConfig(), worker=worker))


async def _serve_async(
    service: SolverService, host: str, port: int, *, drain_timeout: float
) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    handled: list[int] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            handled.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            # No signal support here (Windows loop, non-main thread):
            # KeyboardInterrupt handling in serve() still applies.
            pass
    server = await service.start(host, port)
    bound = server.sockets[0].getsockname()
    label = "worker" if service.worker_state is not None else "service"
    print(f"repro {label} listening on http://{bound[0]}:{bound[1]}", flush=True)
    try:
        async with server:
            await stop.wait()
            # Graceful shutdown: stop accepting, let in-flight requests and
            # queued work finish, then fall through to aclose().
            server.close()
            print(f"repro {label} draining", flush=True)
            drained = await service.drain(timeout=drain_timeout)
            state = "drained" if drained else "drain timed out"
            print(f"repro {label} {state}; stopped", flush=True)
    finally:
        for sig in handled:
            loop.remove_signal_handler(sig)
        await service.aclose()


def serve(
    config: ServiceConfig, *, host: str, port: int, drain_timeout: float, worker: bool = False
) -> int:
    """Blocking entry point of ``repro serve`` and ``repro worker``.

    SIGTERM and SIGINT trigger a graceful shutdown: the listener closes,
    in-flight requests and queued batcher (and worker) work drain for up to
    ``drain_timeout`` seconds, then the process exits 0.
    """
    service = SolverService(config, worker=worker)
    try:
        asyncio.run(_serve_async(service, host, port, drain_timeout=drain_timeout))
    except KeyboardInterrupt:
        print("repro service stopped", flush=True)
    return 0
