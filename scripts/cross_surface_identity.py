#!/usr/bin/env python
"""Golden cross-surface identity check: library == CLI == live service.

For a sample of algorithms, assert that ``repro.solve()``, the
``repro solve`` CLI subcommand, and a live ``repro serve`` HTTP response
yield **byte-identical** canonical responses for the same
``(scenario, algorithm, params, seed)``.

Usage::

    # against an already-running server (the CI job starts one):
    PYTHONPATH=src python scripts/cross_surface_identity.py --url http://127.0.0.1:8765

    # self-contained (starts an in-process server on a free port):
    PYTHONPATH=src python scripts/cross_surface_identity.py

Exits non-zero on the first mismatch, printing both payloads' prefixes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
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


def http_solve(url: str, body: dict) -> bytes:
    request = urllib.request.Request(
        url.rstrip("/") + "/solve",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=600) as response:
        return response.read()


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
    if args.url is None:
        from repro.service import start_in_background

        handle = start_in_background().start()
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
            served = http_solve(args.url, body)
            for surface, payload in (("CLI", cli), ("service", served)):
                if payload != library:
                    failures += 1
                    print(f"MISMATCH [{label}] {surface} != library")
                    print(f"  library: {library[:120]!r}...")
                    print(f"  {surface:>7}: {payload[:120]!r}...")
            if cli == library == served:
                print(f"OK [{label}] {len(library)} canonical bytes on all three surfaces")
    finally:
        if handle is not None:
            handle.stop()

    if failures:
        print(f"{failures} cross-surface mismatch(es)")
        return 1
    print("cross-surface identity holds: repro.solve() == `repro solve` == repro serve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
