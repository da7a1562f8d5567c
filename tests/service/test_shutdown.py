"""Graceful SIGTERM shutdown of ``repro serve`` and ``repro worker``.

The contract (satellite of the distributed PR): on SIGTERM the process
stops *accepting*, but everything already accepted still finishes — the
in-flight request gets its 200, the batcher queue and the worker queue
drain — and only then does the process exit 0.  Each test drives a real
subprocess through the real CLI entry point and the real signal.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

FAST = {"algorithm": "mis", "params": {"n": 120, "c": 0.4}, "seed": 1}


def _spawn(*args: str) -> tuple[subprocess.Popen, int]:
    """Start a repro subcommand on a free port; returns (proc, port)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    match = re.search(r"listening on http://[\d.]+:(\d+)", line)
    if match is None:
        proc.kill()
        raise AssertionError(f"no listening banner, got {line!r}")
    return proc, int(match.group(1))


def _finish(proc: subprocess.Popen, timeout: float = 60.0) -> tuple[int, str]:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    return proc.returncode, out


def _post(port: int, body: dict, timeout: float = 60.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", "/solve", json.dumps(body), {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.mark.parametrize(
    "command,label",
    [(("serve", "--backend", "serial", "--no-adaptive"), "service"), (("worker",), "worker")],
)
def test_idle_process_exits_promptly_and_cleanly(command, label):
    proc, _port = _spawn(*command)
    try:
        proc.send_signal(signal.SIGTERM)
        code, out = _finish(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert code == 0
    assert f"repro {label} draining" in out
    assert f"repro {label} drained; stopped" in out


def test_in_flight_request_completes_before_exit():
    proc, port = _spawn("serve", "--backend", "serial", "--no-adaptive")
    result: dict = {}
    try:
        big = {"algorithm": "mis", "params": {"n": 250, "c": 0.4}, "seed": 3}

        def fire():
            try:
                result["status"], result["body"] = _post(port, big)
            except (http.client.HTTPException, OSError) as exc:
                result["error"] = exc

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.3)  # let the request reach the server
        proc.send_signal(signal.SIGTERM)
        thread.join(60)
        code, out = _finish(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert result.get("status") == 200, result
    assert json.loads(result["body"])["algorithm"] == "mis"
    assert code == 0
    assert "repro service drained; stopped" in out


def test_worker_drains_queued_points_before_exit():
    # Enqueue work on a worker, SIGTERM it immediately, then verify the
    # executed results were completed before exit (the worker announces a
    # clean drain and exits 0 even though its queue was non-empty when the
    # signal landed).
    proc, port = _spawn("worker")
    try:
        payload = {
            "sweep": "shutdown-test",
            "points": [
                {
                    "experiment": "fig1-mis",
                    "fn": "repro.experiments.figure1.mis_experiment",
                    "kwargs": {"n": 40},
                    "seed": seed,
                    "trials": 1,
                }
                for seed in range(8)
            ],
        }
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request(
            "POST", "/register", json.dumps({"sweep": "shutdown-test"}),
            {"Content-Type": "application/json"},
        )
        register = conn.getresponse()
        register.read()
        assert register.status == 200
        conn.request(
            "POST", "/pull", json.dumps(payload), {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        accepted = json.loads(response.read())["accepted"]
        conn.close()
        assert response.status == 200 and len(accepted) == 8
        proc.send_signal(signal.SIGTERM)
        code, out = _finish(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert code == 0
    assert "repro worker drained; stopped" in out
