#!/usr/bin/env python
"""Digest the ten MPC driver calls of the benchmark's ``mpc`` workload.

Builds ``perfbench/mpc.py``'s instances for one seed (n = 4,000 graphs,
c = 0.45) and prints their digest, the workload's own ``_inputs_digest``
(the three graphs' edge and weight arrays, the vertex weights, and both set
cover instances' CSR arrays and weights)::

    inputs <16 hex digits>

then runs each of its ten driver calls once with the random stream the
workload's first pass uses, checks the call's certificate and prints one
line per call::

    <row> <certificate verdict> <sha256 of result plus RunMetrics>

The digest covers the solution and every ``RunMetrics`` field, floats by
``float.hex`` and arrays by dtype, shape and bytes, so two checkouts print
the same ten lines exactly when every driver returns the same bits; the
``inputs`` line changes when a generator draws a different instance at
benchmark sizes (the only place its 40,000-element Floyd path runs).  The
workload's ``setup``, ``calls`` and ``_inputs_digest`` are imported as they
are; nothing under ``perfbench/`` is changed.

Usage::

    python scripts/driver_digests.py [--seed N]

Exits 1 if a certificate check fails.  ``driver_digests-seed1.txt`` and
``driver_digests-seed2.txt`` beside this script hold the eleven lines of
seeds 1 and 2; CI diffs the output of both seeds against them, so a change
that means to move an instance or a driver's output regenerates both
files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import sys
from pathlib import Path
from typing import Any

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")]

import mpc  # noqa: E402


def plain(value: Any) -> Any:
    """A ``repr``-stable form: floats by ``hex``, arrays by dtype, shape and bytes."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [(plain(k), plain(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes().hex())
    if isinstance(value, np.generic):
        return plain(value.item())
    return value.hex() if isinstance(value, float) else repr(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    # setup() announces readiness on stdout for the benchmark's runner.
    with contextlib.redirect_stdout(io.StringIO()):
        state = mpc.setup(args.seed)
    print("inputs", mpc._inputs_digest(state), flush=True)
    failed = 0
    for index, (row, driver, call_args, kwargs, check) in enumerate(mpc.calls(state)):
        result, metrics = driver(*call_args, mpc._rng(args.seed, 100, index), **kwargs)
        verdict = bool(check(result))
        failed += not verdict
        payload = repr((plain(result), plain(metrics))).encode()
        print(row, verdict, hashlib.sha256(payload).hexdigest(), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
