"""Live-server tests: the service must answer exactly like the library.

Each test starts a real :class:`SolverService` on a free port (background
thread, asyncio server) and talks plain HTTP to it.  The load-bearing
assertion throughout: a served response is byte-identical to
:func:`solve_direct` for the same request, concurrent or not, cached or
not.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.service.batcher as batcher_module
import repro.service.server as server_module
from repro.backends import ResultCache, run_sweep
from repro.datasets import load_file, save_dataset
from repro.service import (
    ServiceConfig,
    parse_solve_request,
    request_point,
    solve_direct,
    start_in_background,
)

FAST = {"algorithm": "mis", "params": {"n": 40, "c": 0.35}, "seed": 5}
FIXTURE = Path(__file__).resolve().parents[1] / "data" / "social-small.txt"
TOY_MTX = FIXTURE.with_name("toy.mtx")


def _request(port, method, path, body=None, timeout=60, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if isinstance(body, dict) else body
        conn.request(method, path, payload, headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _poll_until(predicate, *, timeout=30.0, interval=0.02, message="condition"):
    """Wait for ``predicate()`` by polling — never a bare sleep-and-hope."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def _wait_ready(port, timeout=30.0):
    """Poll /healthz until the server answers; the readiness condition."""

    def healthy():
        try:
            status, _, _ = _request(port, "GET", "/healthz", timeout=5)
        except OSError:
            return False
        return status == 200

    _poll_until(healthy, timeout=timeout, message="server readiness")


def _read_response(rfile):
    """Read one ``Content-Length``-framed response; returns ``(status, body)``."""
    status = int(rfile.readline().split()[1])
    length = 0
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, rfile.read(length)


def _burst(port, bodies, timeout=120):
    """Fire one request per body concurrently; returns results in order."""
    results: list[tuple[int, dict, bytes] | None] = [None] * len(bodies)

    def hit(index, body):
        results[index] = _request(port, "POST", "/solve", body, timeout=timeout)

    threads = [
        threading.Thread(target=hit, args=(index, body))
        for index, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(result is not None for result in results)
    return results


@pytest.fixture(scope="module")
def server():
    with start_in_background(ServiceConfig(max_batch=16, batch_wait_ms=10.0)) as handle:
        _wait_ready(handle.port)
        yield handle


class TestSolveEndpoint:
    def test_response_matches_direct_library_call(self, server):
        golden = solve_direct(parse_solve_request(FAST))
        status, headers, body = _request(server.port, "POST", "/solve", FAST)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert body == golden

    def test_concurrent_identical_burst_is_byte_identical(self, server):
        golden = solve_direct(parse_solve_request(FAST))
        results = _burst(server.port, [FAST] * 8)
        assert [status for status, _, _ in results] == [200] * 8
        assert all(body == golden for _, _, body in results)

    def test_concurrent_distinct_requests_each_get_their_own_answer(self, server):
        bodies = [{**FAST, "seed": seed} for seed in range(6)]
        goldens = [solve_direct(parse_solve_request(body)) for body in bodies]
        results = _burst(server.port, bodies)
        for (status, _, body), golden in zip(results, goldens):
            assert status == 200
            assert body == golden
        assert len({body for _, _, body in results}) == len(bodies)

    def test_mixed_algorithms_in_one_burst(self, server):
        bodies = [
            {"algorithm": "mis", "params": {"n": 36, "c": 0.35}, "seed": 1},
            {"algorithm": "maximal-clique", "params": {"n": 30, "c": 0.45}, "seed": 2},
            {"algorithm": "vertex-colouring", "params": {"n": 40, "c": 0.35}, "seed": 3},
        ]
        goldens = [solve_direct(parse_solve_request(body)) for body in bodies]
        for (status, _, body), golden in zip(_burst(server.port, bodies), goldens):
            assert status == 200
            assert body == golden

    def test_file_scenario_served(self, server):
        body = {"algorithm": "mis", "scenario": f"file:{FIXTURE}", "seed": 4}
        golden = solve_direct(parse_solve_request(body))
        status, _, served = _request(server.port, "POST", "/solve", body)
        assert status == 200
        assert served == golden

    def test_keep_alive_serves_multiple_requests_per_connection(self, server):
        golden = solve_direct(parse_solve_request(FAST))
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            for _ in range(3):
                conn.request("POST", "/solve", json.dumps(FAST))
                response = conn.getresponse()
                assert response.status == 200
                assert response.read() == golden
        finally:
            conn.close()

    def test_responses_come_back_in_request_order(self, server):
        """Write five requests back to back on one connection, then read five."""
        bodies = [
            {"algorithm": "mis", "params": {"n": 36, "c": 0.35}, "seed": seed}
            for seed in range(5)
        ]
        goldens = [solve_direct(parse_solve_request(body)) for body in bodies]
        with socket.create_connection(("127.0.0.1", server.port), timeout=60) as sock:
            for body in bodies:
                payload = json.dumps(body).encode()
                sock.sendall(
                    b"POST /solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                    % (len(payload), payload)
                )
            with sock.makefile("rb") as rfile:
                responses = [_read_response(rfile) for _ in bodies]
        assert responses == [(200, golden) for golden in goldens]


class TestResultCacheIntegration:
    def test_replay_is_a_hit_and_byte_identical(self, tmp_path):
        with start_in_background(
            ServiceConfig(
                backend="serial", max_batch=4, batch_wait_ms=1.0, cache_dir=str(tmp_path)
            )
        ) as handle:
            golden = solve_direct(parse_solve_request(FAST))
            status, first_headers, first = _request(handle.port, "POST", "/solve", FAST)
            assert status == 200
            assert first_headers["X-Repro-Cache"] == "miss"
            status, second_headers, second = _request(handle.port, "POST", "/solve", FAST)
            assert status == 200
            assert second_headers["X-Repro-Cache"] == "hit"
            assert first == second == golden


def _warm_cache(directory, body):
    """Compute ``body``'s point into the result cache at ``directory``."""
    run_sweep([request_point(parse_solve_request(body))], cache=str(directory))


@pytest.fixture
def held_sweeps(monkeypatch):
    """Make every batcher sweep block until the test sets ``release``."""
    entered, release = threading.Event(), threading.Event()

    def held(points, **kwargs):
        entered.set()
        release.wait(timeout=60)
        return run_sweep(points, **kwargs)

    monkeypatch.setattr(batcher_module, "run_sweep", held)
    yield entered, release
    release.set()


@contextlib.contextmanager
def _miss_held_in_its_sweep(port, held_sweeps, body):
    """Send the miss ``body`` and yield while its sweep is held.

    Yields the list its response lands in once the sweep is released.
    """
    entered, release = held_sweeps
    computed: list[tuple[int, dict, bytes]] = []
    worker = threading.Thread(
        target=lambda: computed.append(_request(port, "POST", "/solve", body))
    )
    worker.start()
    try:
        assert entered.wait(timeout=30), "the miss never reached run_sweep"
        yield computed
    finally:
        release.set()
        worker.join(timeout=60)


def _metrics(port):
    return json.loads(_request(port, "GET", "/metrics")[2])


class TestHitsAnsweredAtAdmission:
    """A result-cache hit is answered at admission, never by the batcher."""

    MISS = {**FAST, "seed": 6}

    def test_replay_is_answered_while_a_miss_computes(self, tmp_path, held_sweeps):
        _warm_cache(tmp_path, FAST)
        goldens = [solve_direct(parse_solve_request(body)) for body in (FAST, self.MISS)]
        with start_in_background(ServiceConfig(cache_dir=str(tmp_path))) as handle:
            with _miss_held_in_its_sweep(handle.port, held_sweeps, self.MISS) as computed:
                status, headers, body = _request(
                    handle.port, "POST", "/solve", FAST, timeout=10
                )
                answered_while_held = not held_sweeps[1].is_set()
        assert answered_while_held
        assert (status, headers["X-Repro-Cache"]) == (200, "hit")
        assert body == goldens[0]
        [(status, headers, body)] = computed
        assert (status, headers["X-Repro-Cache"]) == (200, "miss")
        assert body == goldens[1]

    def test_replay_leaves_the_batch_counters_alone(self, tmp_path):
        _warm_cache(tmp_path, FAST)
        with start_in_background(ServiceConfig(cache_dir=str(tmp_path))) as handle:
            before = _metrics(handle.port)
            status, headers, _ = _request(handle.port, "POST", "/solve", FAST)
            after = _metrics(handle.port)
        assert (status, headers["X-Repro-Cache"]) == (200, "hit")
        assert after["batches_total"] == before["batches_total"]
        assert after["batched_points_total"] == before["batched_points_total"]
        assert after["result_cache"]["hits"] == before["result_cache"]["hits"] + 1

    def test_concurrent_hits_and_misses_stay_byte_identical(self, tmp_path):
        # A cached body's first sends read its entry on worker threads while
        # batches store into the cache; its later sends are replays from
        # memory.  A short switch interval makes all of them interleave.
        cached = [{**FAST, "seed": seed} for seed in range(4)]
        fresh = [{**FAST, "seed": seed} for seed in range(10, 14)]
        for body in cached:
            _warm_cache(tmp_path, body)
        goldens = {
            json.dumps(body): solve_direct(parse_solve_request(body))
            for body in cached + fresh
        }
        bodies = (cached * 2 + fresh) * 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with start_in_background(ServiceConfig(cache_dir=str(tmp_path))) as handle:
                results = _burst(handle.port, bodies, timeout=60)
                metrics = _metrics(handle.port)
                held = len(handle.service.replies)
        finally:
            sys.setswitchinterval(interval)
        for body, (status, headers, payload) in zip(bodies, results):
            assert status == 200
            assert payload == goldens[json.dumps(body)]
            if body in cached:
                assert headers["X-Repro-Cache"] == "hit"
        cache = metrics["result_cache"]
        assert cache["hits"] + cache["misses"] == len(bodies)
        assert held >= len(cached)

    @pytest.mark.parametrize("primed", [False, True], ids=["disk", "memory"])
    def test_full_queue_sheds_a_replay_before_its_lookup(
        self, tmp_path, held_sweeps, primed
    ):
        _warm_cache(tmp_path, FAST)
        with start_in_background(
            ServiceConfig(cache_dir=str(tmp_path), max_queue=1)
        ) as handle:
            if primed:
                # A first replay puts FAST's reply in memory; a full queue
                # sheds it all the same.
                assert _request(handle.port, "POST", "/solve", FAST)[0] == 200
            assert len(handle.service.replies) == primed
            with _miss_held_in_its_sweep(handle.port, held_sweeps, self.MISS) as computed:
                status, headers, _ = _request(handle.port, "POST", "/solve", FAST)
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert [status for status, _, _ in computed] == [200]


@pytest.fixture
def cache_calls(monkeypatch):
    """Count ``ResultCache.load`` and ``ResultCache.store`` calls."""
    calls = {"load": 0, "store": 0}

    def counted(name):
        original = getattr(ResultCache, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ResultCache, name, counted(name))
    return calls


def _replace_entry_with_a_stale_version(path):
    """Publish, like ``ResultCache.store``, an entry a load treats as a miss."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["repro_version"] = "0.0.0-other"
    staged = path.with_suffix(".staged")
    staged.write_text(json.dumps(payload), encoding="utf-8")
    staged.replace(path)


class TestReplyCache:
    """A body replayed from the result cache is answered again from memory."""

    def _entry(self, directory):
        return ResultCache(directory).path_for(request_point(parse_solve_request(FAST)))

    def test_memory_replay_is_a_hit_without_a_second_load(self, tmp_path, cache_calls):
        _warm_cache(tmp_path, FAST)
        golden = solve_direct(parse_solve_request(FAST))
        loads = cache_calls["load"]
        with start_in_background(ServiceConfig(cache_dir=str(tmp_path))) as handle:
            before = _metrics(handle.port)
            replies = [_request(handle.port, "POST", "/solve", FAST) for _ in range(2)]
            after = _metrics(handle.port)
        for status, headers, body in replies:
            assert (status, headers["X-Repro-Cache"], body) == (200, "hit", golden)
        assert cache_calls["load"] == loads + 1
        assert after["result_cache"]["hits"] == before["result_cache"]["hits"] + 2
        assert after["batches_total"] == before["batches_total"]
        assert after["batched_points_total"] == before["batched_points_total"]
        assert after["algorithms"]["mis"]["count"] == 2

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(lambda path: path.unlink(), id="deleted"),
            pytest.param(_replace_entry_with_a_stale_version, id="replaced"),
        ],
    )
    def test_changed_entry_file_makes_the_next_request_a_miss(
        self, tmp_path, cache_calls, change
    ):
        _warm_cache(tmp_path, FAST)
        golden = solve_direct(parse_solve_request(FAST))
        entry = self._entry(tmp_path)
        with start_in_background(ServiceConfig(cache_dir=str(tmp_path))) as handle:
            for _ in range(2):
                status, headers, _ = _request(handle.port, "POST", "/solve", FAST)
                assert (status, headers["X-Repro-Cache"]) == (200, "hit")
            stores = cache_calls["store"]
            change(entry)
            status, headers, body = _request(handle.port, "POST", "/solve", FAST)
            assert (status, headers["X-Repro-Cache"], body) == (200, "miss", golden)
            assert cache_calls["store"] == stores + 1
            assert ResultCache(tmp_path).load(request_point(parse_solve_request(FAST)))
            status, headers, body = _request(handle.port, "POST", "/solve", FAST)
        assert (status, headers["X-Repro-Cache"], body) == (200, "hit", golden)

    def test_file_scenario_follows_its_dataset(self, tmp_path):
        dataset = tmp_path / "graph.npz"
        body = {"algorithm": "mis", "scenario": f"file:{dataset}", "seed": 4}
        with start_in_background(ServiceConfig(cache_dir=str(tmp_path / "cache"))) as handle:
            save_dataset(dataset, load_file(FIXTURE)[0])
            old = solve_direct(parse_solve_request(body))
            served = [_request(handle.port, "POST", "/solve", body) for _ in range(2)]
            assert [(s, h["X-Repro-Cache"], b) for s, h, b in served] == [
                (200, "miss", old), (200, "hit", old)
            ]
            save_dataset(dataset, load_file(TOY_MTX)[0])
            new = solve_direct(parse_solve_request(body))
            status, headers, served = _request(handle.port, "POST", "/solve", body)
            assert len(handle.service.replies) == 0
        assert new != old
        assert (status, headers["X-Repro-Cache"], served) == (200, "miss", new)

    def test_padded_bodies_never_exceed_the_byte_budget(self, tmp_path, monkeypatch):
        budget = 2000
        monkeypatch.setattr(server_module, "REPLY_CACHE_BYTES", budget)
        _warm_cache(tmp_path, FAST)
        golden = solve_direct(parse_solve_request(FAST))
        text = json.dumps(FAST)
        bodies = [text + " " * (60 * k) for k in range(12)] + [text + " " * budget]
        with start_in_background(ServiceConfig(cache_dir=str(tmp_path))) as handle:
            replies = handle.service.replies
            held = []
            for body in bodies:
                status, headers, payload = _request(handle.port, "POST", "/solve", body)
                assert (status, headers["X-Repro-Cache"], payload) == (200, "hit", golden)
                assert replies.nbytes <= budget
                held.append(len(replies))
        assert max(held) < len(bodies) - 1  # older bodies were evicted
        assert held[-1] == held[-2]  # a body over the budget is not kept
        assert replies.nbytes == sum(
            len(text) + 60 * k + len(golden) for k in range(12)[-held[-1]:]
        )


class TestAuxiliaryEndpoints:
    def test_healthz(self, server):
        status, _, body = _request(server.port, "GET", "/healthz")
        assert (status, json.loads(body)) == (200, {"status": "ok"})

    def test_algorithms_listing_comes_from_the_registry(self, server):
        from repro.registry import iter_algorithms

        status, _, body = _request(server.port, "GET", "/algorithms")
        listing = json.loads(body)
        assert status == 200
        assert listing["matching"]["experiment"] == "fig1-matching"
        assert listing["matching"]["kind"] == "graph"
        assert "fig1-matching" in listing["matching"]["aliases"]
        assert "mu" in listing["matching"]["params"]
        # The route is generated from the registry: same names, same params.
        for spec in iter_algorithms():
            assert set(listing[spec.name]["params"]) == set(spec.params)
            assert listing[spec.name]["guarantee"] == spec.guarantee

    def test_scenarios_listing(self, server):
        status, _, body = _request(server.port, "GET", "/scenarios")
        listing = json.loads(body)
        assert status == 200
        assert listing["powerlaw-dense"]["kind"] == "graph"
        assert listing["coverage-planning"]["kind"] == "setcover"

    def test_metrics_shape(self, server):
        _request(server.port, "POST", "/solve", FAST)
        status, _, body = _request(server.port, "GET", "/metrics")
        metrics = json.loads(body)
        assert status == 200
        assert metrics["requests_total"] >= 1
        assert metrics["responses_total"] >= 1
        assert metrics["batches_total"] >= 1
        assert metrics["batch_size_max"] >= 1
        assert 0.0 <= metrics["result_cache"]["hit_rate"] <= 1.0
        assert "hit_rate" in metrics["instance_cache"]
        algorithm = metrics["algorithms"]["mis"]
        assert algorithm["count"] >= 1
        assert algorithm["seconds_min"] <= algorithm["seconds_mean"] <= algorithm["seconds_max"]


class TestErrorHandling:
    def test_unknown_route_is_404(self, server):
        status, _, body = _request(server.port, "GET", "/nope")
        assert status == 404
        assert "error" in json.loads(body)

    def test_wrong_method_is_405(self, server):
        assert _request(server.port, "GET", "/solve")[0] == 405
        assert _request(server.port, "POST", "/metrics", "{}")[0] == 405

    def test_malformed_json_is_400(self, server):
        status, _, body = _request(server.port, "POST", "/solve", "{not json")
        assert status == 400
        assert "error" in json.loads(body)

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400_not_a_dropped_connection(self, server, length):
        # Regression: a non-numeric/negative Content-Length used to raise an
        # uncaught ValueError, dropping the connection with no response.
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                f"POST /solve HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
            )
            sock.settimeout(30)
            response = sock.recv(65536)
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_unknown_algorithm_is_400(self, server):
        status, _, _ = _request(server.port, "POST", "/solve", {"algorithm": "simplex"})
        assert status == 400

    def test_negative_seed_is_a_400_before_the_batcher(self, server):
        before = _metrics(server.port)
        status, _, body = _request(
            server.port, "POST", "/solve", {"algorithm": "mis", "seed": -1}
        )
        after = _metrics(server.port)
        assert status == 400
        assert json.loads(body) == {"error": "'seed' must be a non-negative integer"}
        assert after["batched_points_total"] == before["batched_points_total"]

    def test_errors_are_counted(self, server):
        before = json.loads(_request(server.port, "GET", "/metrics")[2])["errors_total"]
        _request(server.port, "POST", "/solve", {"algorithm": "simplex"})

        def incremented():
            after = json.loads(_request(server.port, "GET", "/metrics")[2])["errors_total"]
            return after == before + 1

        _poll_until(incremented, message="errors_total to increment")


class TestHardenedSurface:
    """The production-hardening additions: SLO metrics, deadlines, shedding."""

    def test_metrics_exposes_latency_histogram(self, server):
        _request(server.port, "POST", "/solve", FAST)
        metrics = json.loads(_request(server.port, "GET", "/metrics")[2])
        latency = metrics["latency"]
        assert latency["count"] >= 1
        assert latency["p50"] <= latency["p99"] <= latency["p999"]
        assert latency["min"] <= latency["p50"] <= latency["max"]
        # Per-algorithm histograms ride along.
        assert metrics["algorithms"]["mis"]["latency"]["count"] >= 1

    def test_metrics_exposes_shedding_counters_and_batcher_state(self, server):
        metrics = json.loads(_request(server.port, "GET", "/metrics")[2])
        assert metrics["rejected_total"] >= 0
        assert metrics["deadline_timeouts_total"] >= 0
        batcher = metrics["batcher"]
        assert batcher["queue_depth"] >= 0
        assert batcher["batch_size_limit"] >= 1
        assert batcher["wait_seconds"] >= 0.0
        assert isinstance(batcher["adaptive"], bool)

    def test_generous_deadline_is_byte_identical_to_direct(self, server):
        golden = solve_direct(parse_solve_request(FAST))
        status, _, body = _request(
            server.port, "POST", "/solve", FAST,
            headers={"X-Repro-Deadline-Ms": "60000"},
        )
        assert status == 200
        assert body == golden

    def test_adaptive_server_stays_byte_identical(self):
        bodies = [{**FAST, "seed": seed} for seed in range(4)]
        goldens = [solve_direct(parse_solve_request(body)) for body in bodies]
        with start_in_background(
            ServiceConfig(
                backend="batch",
                max_batch=8,
                batch_wait_ms=5.0,
                adaptive=True,
                target_p99_ms=50.0,
            )
        ) as handle:
            _wait_ready(handle.port)
            for _ in range(3):  # several passes so the policy can adjust
                for body, golden in zip(bodies, goldens):
                    status, _, served = _request(handle.port, "POST", "/solve", body)
                    assert status == 200
                    assert served == golden
            metrics = json.loads(_request(handle.port, "GET", "/metrics")[2])
            assert metrics["batcher"]["adaptive"] is True
            assert "policy" in metrics["batcher"]
