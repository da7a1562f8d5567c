"""Fault injection: hostile and broken clients must never take the server down.

Every test here wounds a live server in a specific way — a slow-loris
trickle, a mid-request disconnect, an oversized body, malformed chunked
framing, a solver that raises mid-batch — and then asserts the two
invariants production hardening is about:

1. the server *stays up* (a subsequent well-formed request succeeds), and
2. concurrent innocent requests are *never corrupted* (their responses
   stay byte-identical to the direct library call).

All waits are condition polls with deadlines, never fixed sleeps.
"""

from __future__ import annotations

import http.client
import itertools
import json
import socket
import threading
import time

import pytest

import repro.service.batcher as batcher_module
import repro.service.server as server_module
from repro.service import (
    ServiceConfig,
    SolverService,
    parse_solve_request,
    solve_direct,
    start_in_background,
)

FAST = {"algorithm": "mis", "params": {"n": 40, "c": 0.35}, "seed": 5}
#: Parses fine (param *names* are validated up front, values at solve time)
#: but raises inside the worker — the mid-batch poison pill.
POISON = {"algorithm": "mis", "params": {"n": -1}, "seed": 0}


def _request(port, method, path, body=None, timeout=60, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if isinstance(body, dict) else body
        conn.request(method, path, payload, headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _assert_alive(port):
    status, _, body = _request(port, "GET", "/healthz", timeout=30)
    assert status == 200
    assert json.loads(body) == {"status": "ok"}


def _recv_all(sock, timeout=30.0):
    """Read until the peer closes (or the deadline passes); returns bytes."""
    sock.settimeout(timeout)
    chunks = []
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    except socket.timeout:
        pass
    return b"".join(chunks)


@pytest.fixture(scope="module")
def server():
    # Short read timeout so the slow-loris tests run in seconds, not
    # minutes; everything else at service defaults.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_module, "READ_TIMEOUT", 1.0)
        with start_in_background(ServiceConfig(max_batch=8)) as handle:
            _assert_alive(handle.port)
            yield handle


class TestSlowLoris:
    def test_partial_request_line_is_timed_out(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"POST /solve HT")  # never finish the request line
            response = _recv_all(sock, timeout=10.0)
        assert response.startswith(b"HTTP/1.1 408 ")
        _assert_alive(server.port)

    def test_headers_without_body_are_timed_out(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            # Complete headers promising a body that never comes.
            sock.sendall(b"POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
            response = _recv_all(sock, timeout=10.0)
        assert response.startswith(b"HTTP/1.1 408 ")
        _assert_alive(server.port)

    def test_idle_connection_is_closed_without_a_response(self, server):
        # No byte of a request ever arrives: there is nothing to answer, so
        # a 408 here would be read as the reply to the client's next request.
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            started = time.monotonic()
            response = _recv_all(sock, timeout=10.0)
            closed_after = time.monotonic() - started
        assert response == b""
        assert closed_after < 10.0, "the server never closed the idle connection"
        _assert_alive(server.port)

    def test_slow_loris_does_not_starve_concurrent_requests(self, server):
        golden = solve_direct(parse_solve_request(FAST))
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"POST /solve HTTP/1.1\r\nContent-Le")
            # While the loris trickles, an honest client is served.
            status, _, body = _request(server.port, "POST", "/solve", FAST)
            assert status == 200
            assert body == golden
        _assert_alive(server.port)


class TestClientDisconnect:
    def test_disconnect_before_body_completes(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"POST /solve HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"alg")
            # Close mid-body: the server's readexactly sees an incomplete
            # stream and must drop the connection without dying.
        _assert_alive(server.port)

    def test_disconnect_while_response_is_computing(self, server):
        golden = solve_direct(parse_solve_request(FAST))
        results = {}

        def innocent():
            results["innocent"] = _request(server.port, "POST", "/solve", FAST)

        thread = threading.Thread(target=innocent)
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            payload = json.dumps(FAST).encode()
            sock.sendall(
                b"POST /solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (len(payload), payload)
            )
            thread.start()
            # Vanish before the response arrives; the server's write hits a
            # reset socket and must shrug it off.
            sock.close()
        thread.join(timeout=60)
        status, _, body = results["innocent"]
        assert status == 200
        assert body == golden
        _assert_alive(server.port)


class TestOversizedAndMalformed:
    def test_oversized_body_is_413(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"POST /solve HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
            response = _recv_all(sock, timeout=10.0)
        assert response.startswith(b"HTTP/1.1 413 ")
        _assert_alive(server.port)

    def test_malformed_chunked_frames_are_411(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /solve HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"ZZZ\r\nnot a chunk size\r\n0\r\n\r\n"
            )
            response = _recv_all(sock, timeout=10.0)
        # Chunked framing is refused before the body is touched, so the
        # garbage frames can never desync the connection.
        assert response.startswith(b"HTTP/1.1 411 ")
        _assert_alive(server.port)

    def test_garbage_request_line_is_400(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"\x00\x01GARBAGE\r\n\r\n")
            response = _recv_all(sock, timeout=10.0)
        assert response.startswith(b"HTTP/1.1 400 ")
        _assert_alive(server.port)


class TestWorkerFaults:
    def test_poison_point_fails_alone_mid_batch(self):
        """A request whose solve raises must not fail its batch-mates."""
        goldens = [
            solve_direct(parse_solve_request({**FAST, "seed": seed}))
            for seed in range(4)
        ]
        # A wide window so the poison lands in the same batch as the
        # innocents deterministically.
        with start_in_background(
            ServiceConfig(max_batch=8, batch_wait_ms=100.0, adaptive=False)
        ) as handle:
            _assert_alive(handle.port)
            results: dict[int, tuple] = {}

            def hit(index, body):
                results[index] = _request(handle.port, "POST", "/solve", body)

            bodies = [{**FAST, "seed": seed} for seed in range(4)] + [POISON]
            threads = [
                threading.Thread(target=hit, args=(index, body))
                for index, body in enumerate(bodies)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            # The innocents: 200 and byte-identical, despite sharing a
            # batch with the poison point.
            for index in range(4):
                status, _, body = results[index]
                assert status == 200
                assert body == goldens[index]
            # The poison: a 500 of its own, not a dropped connection.
            status, _, body = results[4]
            assert status == 500
            assert "error" in json.loads(body)
            _assert_alive(handle.port)

    def test_server_survives_repeated_worker_failures(self, server):
        golden = solve_direct(parse_solve_request(FAST))
        for _ in range(3):
            status, _, _ = _request(server.port, "POST", "/solve", POISON)
            assert status == 500
        status, _, body = _request(server.port, "POST", "/solve", FAST)
        assert status == 200
        assert body == golden
        _assert_alive(server.port)


def _hold_first_call(monkeypatch, module, name):
    """Make the first call of ``module.name`` block until ``release`` is set.

    Returns ``(entered, release)``; later calls run straight through.
    """
    real = getattr(module, name)
    calls = itertools.count()
    entered, release = threading.Event(), threading.Event()

    def held(*args, **kwargs):
        if next(calls) == 0:
            entered.set()
            release.wait(timeout=60)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, held)
    return entered, release


def _shed_while_first_is_held(port, entered, release, count=7):
    """Hold one solve, fire ``count`` more, release; returns every outcome."""
    slow = {"algorithm": "mis", "params": {"n": 120, "c": 0.4}, "seed": 1}
    statuses: list[tuple[int, dict]] = []
    lock = threading.Lock()

    def hit(body):
        status, headers, _ = _request(port, "POST", "/solve", body)
        with lock:
            statuses.append((status, headers))

    first = threading.Thread(target=hit, args=(slow,))
    first.start()
    try:
        assert entered.wait(timeout=30), "the first solve was never held"
        threads = [
            threading.Thread(target=hit, args=({**slow, "seed": seed},))
            for seed in range(2, 2 + count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        release.set()
        first.join(timeout=120)
    return statuses


class TestBackpressure:
    def test_overload_sheds_with_429_and_retry_after(self, monkeypatch):
        # max_queue=1: while the first admitted solve is held in its sweep,
        # every other concurrent request must be shed, not queued without
        # bound.
        entered, release = _hold_first_call(monkeypatch, batcher_module, "run_sweep")
        with start_in_background(
            ServiceConfig(
                backend="serial",
                max_batch=1,
                batch_wait_ms=0.0,
                adaptive=False,
                max_queue=1,
            )
        ) as handle:
            _assert_alive(handle.port)
            statuses = _shed_while_first_is_held(handle.port, entered, release)
            codes = sorted(status for status, _ in statuses)
            assert 429 in codes, f"nothing was shed: {codes}"
            assert all(status in (200, 429) for status in codes), codes
            assert codes == [200] + [429] * 7, codes
            for status, headers in statuses:
                if status == 429:
                    assert int(headers["Retry-After"]) >= 1
            _assert_alive(handle.port)

    def test_solve_counts_against_the_bound_while_it_parses(self, monkeypatch):
        # A slow parse (a first `file:` request fingerprints its dataset)
        # must not let concurrent solves slip past max_queue.
        entered, release = _hold_first_call(monkeypatch, server_module, "parse_solve_request")
        with start_in_background(ServiceConfig(backend="serial", max_queue=1)) as handle:
            _assert_alive(handle.port)
            statuses = _shed_while_first_is_held(handle.port, entered, release)
            codes = sorted(status for status, _ in statuses)
            assert codes == [200] + [429] * 7, codes
            _assert_alive(handle.port)

    def test_timed_out_solve_counts_until_its_point_runs(self, monkeypatch):
        # A 504 answers the client, but its point stays in the batcher until
        # the batch runs it; it must keep counting against max_queue, or
        # every deadline period would admit another max_queue solves.
        entered, release = _hold_first_call(monkeypatch, batcher_module, "run_sweep")
        with start_in_background(
            ServiceConfig(
                backend="serial",
                max_batch=1,
                batch_wait_ms=0.0,
                adaptive=False,
                max_queue=1,
            )
        ) as handle:
            _assert_alive(handle.port)
            slow = {"algorithm": "mis", "params": {"n": 120, "c": 0.4}, "seed": 1}
            try:
                status, _, _ = _request(
                    handle.port, "POST", "/solve", slow,
                    headers={"X-Repro-Deadline-Ms": "50"},
                )
                assert status == 504
                assert entered.wait(timeout=30), "the timed-out solve never ran"
                status, headers, _ = _request(
                    handle.port, "POST", "/solve", {**slow, "seed": 2}
                )
                assert status == 429
                assert int(headers["Retry-After"]) >= 1
            finally:
                release.set()
            _assert_alive(handle.port)

    def test_retry_after_is_set_by_computes_not_hits(self):
        service = SolverService(ServiceConfig(backend="serial"))
        for _ in range(200):
            service.metrics.record_response("mis", 0.0004, cached=True)
        for _ in range(5):
            service.metrics.record_response("mis", 0.2, cached=False)
        service._admitted = 10
        # 10 admitted solves x a 200 ms compute p50; the 0.4 ms hits that
        # make up the p50 of all responses would give the 1 s floor.
        assert service._retry_after() == 2

    def test_deadline_timeout_is_504(self):
        with start_in_background(
            ServiceConfig(backend="serial", max_batch=4, batch_wait_ms=0.0, adaptive=False)
        ) as handle:
            _assert_alive(handle.port)
            body = {"algorithm": "mis", "params": {"n": 150, "c": 0.4}, "seed": 2}
            status, _, payload = _request(
                handle.port,
                "POST",
                "/solve",
                body,
                headers={"X-Repro-Deadline-Ms": "1"},
            )
            assert status == 504
            assert "deadline" in json.loads(payload)["error"]
            _assert_alive(handle.port)

    def test_invalid_deadline_header_is_400(self, server):
        for bad in ("abc", "-5", "0"):
            status, _, _ = _request(
                server.port, "POST", "/solve", FAST,
                headers={"X-Repro-Deadline-Ms": bad},
            )
            assert status == 400
        _assert_alive(server.port)


class TestServerDeadline:
    """``deadline_ms`` bounds every solve; a client may tighten it, never loosen it."""

    @pytest.mark.parametrize(
        "server_ms,header",
        [(50.0, None), (50.0, "60000"), (60_000.0, "50")],
        ids=["server-deadline", "client-cannot-loosen", "client-tightens"],
    )
    def test_held_solve_gets_504_at_the_tighter_deadline(
        self, monkeypatch, server_ms, header
    ):
        entered, release = _hold_first_call(monkeypatch, batcher_module, "run_sweep")
        headers = {} if header is None else {"X-Repro-Deadline-Ms": header}
        with start_in_background(
            ServiceConfig(backend="serial", deadline_ms=server_ms)
        ) as handle:
            _assert_alive(handle.port)
            try:
                status, _, payload = _request(
                    handle.port, "POST", "/solve", FAST, headers=headers
                )
            finally:
                release.set()
            assert entered.is_set(), "the solve never reached its sweep"
            assert status == 504
            assert json.loads(payload) == {"error": "deadline of 50 ms exceeded"}
            _assert_alive(handle.port)
