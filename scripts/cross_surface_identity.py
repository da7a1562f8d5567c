#!/usr/bin/env python
"""Golden cross-surface identity check: library == CLI == live service.

For a sample of algorithms, assert that ``repro.solve()``, the
``repro solve`` CLI subcommand, and a live ``repro serve`` HTTP response
yield **byte-identical** canonical responses for the same
``(scenario, algorithm, params, seed)``.  Each body is sent to the server
three times: it computes, then replays from the result cache on disk,
then from the server's reply cache in memory.  All three must equal the
library's bytes, and the second and third must say
``X-Repro-Cache: hit``, so the server needs a ``--cache-dir``.

Usage::

    # against an already-running server (the CI job starts one):
    PYTHONPATH=src python scripts/cross_surface_identity.py --url http://127.0.0.1:8765

    # self-contained (starts an in-process server with a temporary
    # result cache on a free port):
    PYTHONPATH=src python scripts/cross_surface_identity.py

Exits non-zero on the first mismatch, printing both payloads' prefixes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402

#: (algorithm, scenario, params, seed) samples across problem kinds.
SAMPLES = [
    ("mis", None, {"n": 36, "c": 0.35}, 5),
    ("matching", None, {"n": 40, "c": 0.4}, 1),
    ("vertex-cover", None, {"n": 40, "c": 0.4}, 2),
    ("set-cover-greedy", None, {"num_sets": 40, "num_elements": 20}, 3),
    ("mis", "powerlaw-dense", None, 4),
]


def cli_solve(algorithm: str, scenario: str | None, params: dict | None, seed: int) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [sys.executable, "-m", "repro", "solve", algorithm, "--seed", str(seed)]
    if scenario:
        command += ["--scenario", scenario]
    for key, value in (params or {}).items():
        command += ["--param", f"{key}={json.dumps(value)}"]
    completed = subprocess.run(
        command, capture_output=True, env=env, cwd=str(REPO_ROOT), timeout=600
    )
    # Exit code 1 means "solved but the certificate check failed" — the
    # canonical bytes are still printed and still comparable; anything
    # else (or an empty body) is a genuine CLI failure.
    if completed.returncode not in (0, 1) or not completed.stdout:
        raise SystemExit(
            f"CLI solve failed (exit {completed.returncode}):\n"
            f"{completed.stderr.decode()}"
        )
    return completed.stdout.rstrip(b"\n")


#: The three sends of each body and the cache header each must carry
#: (``None``: either; a server that saw the body before replays it).
SENDS = [("compute", None), ("disk replay", "hit"), ("memory replay", "hit")]


def http_solve(url: str, body: dict) -> tuple[bytes, str | None]:
    """POST one solve; returns the body and its ``X-Repro-Cache`` header."""
    request = urllib.request.Request(
        url.rstrip("/") + "/solve",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=600) as response:
        return response.read(), response.headers.get("X-Repro-Cache")


def wait_for(url: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            with urllib.request.urlopen(url.rstrip("/") + "/healthz", timeout=5):
                return
        except (urllib.error.URLError, OSError):
            if time.monotonic() > deadline:
                raise SystemExit(f"no server answered at {url} within {timeout}s")
            time.sleep(0.5)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--url",
        default=None,
        help="base URL of a running `repro serve` (default: start one in-process)",
    )
    args = parser.parse_args()

    handle = None
    cache_dir = None
    if args.url is None:
        from repro.service import ServiceConfig, start_in_background

        cache_dir = tempfile.TemporaryDirectory()
        handle = start_in_background(ServiceConfig(cache_dir=cache_dir.name)).start()
        args.url = f"http://127.0.0.1:{handle.port}"
    else:
        wait_for(args.url)

    failures = 0
    try:
        for algorithm, scenario, params, seed in SAMPLES:
            label = f"{algorithm}" + (f" @ {scenario}" if scenario else "")
            library = repro.solve(
                algorithm, scenario, params=params, seed=seed
            ).canonical_json()
            cli = cli_solve(algorithm, scenario, params, seed)
            body: dict = {"algorithm": algorithm, "seed": seed}
            if scenario:
                body["scenario"] = scenario
            if params:
                body["params"] = params
            surfaces = [("CLI", cli)]
            for send, expected in SENDS:
                served, cache = http_solve(args.url, body)
                surfaces.append((f"service {send}", served))
                if expected is not None and cache != expected:
                    failures += 1
                    print(f"MISMATCH [{label}] service {send} read X-Repro-Cache: {cache}")
            for surface, payload in surfaces:
                if payload != library:
                    failures += 1
                    print(f"MISMATCH [{label}] {surface} != library")
                    print(f"  library: {library[:120]!r}...")
                    print(f"  {surface}: {payload[:120]!r}...")
            if all(payload == library for _, payload in surfaces):
                print(
                    f"OK [{label}] {len(library)} canonical bytes on all three "
                    "surfaces (service: computed, replayed from disk, from memory)"
                )
    finally:
        if handle is not None:
            handle.stop()
        if cache_dir is not None:
            cache_dir.cleanup()

    if failures:
        print(f"{failures} cross-surface mismatch(es)")
        return 1
    print("cross-surface identity holds: repro.solve() == `repro solve` == repro serve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
