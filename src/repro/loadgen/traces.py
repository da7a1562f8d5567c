"""Request traces: deterministic arrival schedules for the load harness.

Every generator takes an integer ``seed`` and produces exactly the same
trace for the same arguments — the request schedule is part of the
experiment's identity, so a load-test result can name the trace that
produced it and anyone can re-fire the identical workload.  Determinism
is tested down to the serialized bytes in
``tests/property/test_property_loadgen.py``.

Arrival processes
-----------------
``poisson_trace``
    Homogeneous Poisson arrivals at ``rate`` req/s: i.i.d. exponential
    gaps.  The steady-state reference.
``onoff_trace``
    Bursty on/off (Markov-modulated-style) arrivals: alternating ON
    windows at ``on_rate`` and OFF windows at ``off_rate`` (default 0) of
    fixed lengths.  The reference "bursty" trace the adaptive batcher is
    gated against: long quiet valleys punish a fixed wait window, dense
    bursts punish a missing one.
``ramp_trace``
    Piecewise-Poisson ramp from ``start_rate`` to ``end_rate``: finds the
    saturation knee by walking the offered load through it.

Request bodies cycle deterministically through a body list (index ``i %
len(bodies)``), which reproduces the hot-query-heavy mix a public
endpoint sees when the list contains duplicates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ReplayConfig",
    "RequestTrace",
    "TraceRequest",
    "default_bodies",
    "load_trace",
    "onoff_trace",
    "poisson_trace",
    "ramp_trace",
    "save_trace",
]


@dataclass(frozen=True)
class TraceRequest:
    """One scheduled request: fire ``body`` at ``at`` seconds after start."""

    at: float
    body: Mapping[str, Any]


@dataclass
class RequestTrace:
    """An ordered request schedule plus the metadata that identifies it."""

    requests: list[TraceRequest]
    meta: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def duration(self) -> float:
        """Nominal trace length: the configured duration, else the last arrival."""
        configured = self.meta.get("duration")
        if configured is not None:
            return float(configured)
        return self.requests[-1].at if self.requests else 0.0

    @property
    def mean_rate(self) -> float:
        """Offered request rate over the nominal duration (req/s)."""
        return len(self.requests) / self.duration if self.duration else 0.0

    def scaled(self, rate_scale: float) -> "RequestTrace":
        """Replay ``rate_scale``x faster (>1) or slower (<1): offsets divide."""
        if rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        if rate_scale == 1.0:
            return self
        meta = dict(self.meta)
        if meta.get("duration") is not None:
            meta["duration"] = float(meta["duration"]) / rate_scale
        meta["rate_scale"] = rate_scale * float(self.meta.get("rate_scale", 1.0))
        return RequestTrace(
            requests=[
                TraceRequest(at=request.at / rate_scale, body=request.body)
                for request in self.requests
            ],
            meta=meta,
        )

    def truncated(self, max_requests: int | None) -> "RequestTrace":
        """At most ``max_requests`` arrivals (None = all)."""
        if max_requests is None or len(self.requests) <= max_requests:
            return self
        kept = self.requests[: max(0, int(max_requests))]
        meta = dict(self.meta) | {"truncated_to": len(kept)}
        return RequestTrace(requests=kept, meta=meta)


@dataclass(frozen=True)
class ReplayConfig:
    """How a trace is replayed (the knobs, not the schedule).

    ``rate_scale`` rescales the schedule (2.0 = twice as fast);
    ``max_requests`` truncates it; ``connections`` sizes the keep-alive
    connection pool; ``timeout`` bounds one HTTP exchange; ``verify``
    checks every 200 body byte-for-byte against the direct library call
    (expensive: one in-process solve per *distinct* request body);
    ``deadline_ms``, when set, is sent as ``X-Repro-Deadline-Ms`` on every
    request.
    """

    rate_scale: float = 1.0
    max_requests: int | None = None
    connections: int = 16
    timeout: float = 120.0
    verify: bool = False
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("the client deadline must be positive")

    def prepare(self, trace: RequestTrace) -> RequestTrace:
        return trace.scaled(self.rate_scale).truncated(self.max_requests)


# --------------------------------------------------------------------------- #
# Body mixes
# --------------------------------------------------------------------------- #
def default_bodies(
    *,
    algorithm: str = "mis",
    n: int = 60,
    distinct: int = 8,
    scenario: str | None = None,
) -> list[dict[str, Any]]:
    """A hot-query-heavy body mix: ``distinct`` seeds of one workload."""
    bodies: list[dict[str, Any]] = []
    for seed in range(max(1, distinct)):
        body: dict[str, Any] = {"algorithm": algorithm, "seed": seed}
        if scenario:
            body["scenario"] = scenario
        else:
            body["params"] = {"n": int(n), "c": 0.4}
        bodies.append(body)
    return bodies


def _assemble(
    offsets: Iterable[float],
    bodies: Sequence[Mapping[str, Any]],
    meta: dict[str, Any],
) -> RequestTrace:
    if not bodies:
        raise ValueError("need at least one request body")
    requests = [
        TraceRequest(at=float(at), body=dict(bodies[index % len(bodies)]))
        for index, at in enumerate(offsets)
    ]
    meta["requests"] = len(requests)
    return RequestTrace(requests=requests, meta=meta)


# --------------------------------------------------------------------------- #
# Synthetic arrival processes
# --------------------------------------------------------------------------- #
def poisson_trace(
    *,
    rate: float,
    duration: float,
    bodies: Sequence[Mapping[str, Any]],
    seed: int = 0,
) -> RequestTrace:
    """Homogeneous Poisson arrivals at ``rate`` req/s for ``duration`` s."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    offsets: list[float] = []
    at = 0.0
    while True:
        at += float(rng.exponential(1.0 / rate))
        if at >= duration:
            break
        offsets.append(at)
    return _assemble(
        offsets,
        bodies,
        {"process": "poisson", "rate": rate, "duration": duration, "seed": seed},
    )


def onoff_trace(
    *,
    on_rate: float,
    duration: float,
    bodies: Sequence[Mapping[str, Any]],
    on_seconds: float = 1.0,
    off_seconds: float = 1.0,
    off_rate: float = 0.0,
    seed: int = 0,
) -> RequestTrace:
    """Bursty on/off arrivals: ON windows at ``on_rate``, OFF at ``off_rate``.

    Mean offered rate is ``(on_rate * on + off_rate * off) / (on + off)``.
    """
    if on_rate <= 0 or duration <= 0:
        raise ValueError("on_rate and duration must be positive")
    if on_seconds <= 0 or off_seconds < 0 or off_rate < 0:
        raise ValueError("window lengths must be positive, off_rate non-negative")
    rng = np.random.default_rng(seed)
    offsets: list[float] = []
    window_start, on = 0.0, True
    while window_start < duration:
        window = on_seconds if on else off_seconds
        rate = on_rate if on else off_rate
        if window > 0 and rate > 0:
            at = window_start
            while True:
                at += float(rng.exponential(1.0 / rate))
                if at >= min(window_start + window, duration):
                    break
                offsets.append(at)
        window_start += window
        on = not on
    return _assemble(
        offsets,
        bodies,
        {
            "process": "onoff",
            "on_rate": on_rate,
            "off_rate": off_rate,
            "on_seconds": on_seconds,
            "off_seconds": off_seconds,
            "duration": duration,
            "seed": seed,
        },
    )


def ramp_trace(
    *,
    start_rate: float,
    end_rate: float,
    duration: float,
    bodies: Sequence[Mapping[str, Any]],
    steps: int = 10,
    seed: int = 0,
) -> RequestTrace:
    """Piecewise-Poisson ramp from ``start_rate`` to ``end_rate`` req/s."""
    if start_rate < 0 or end_rate < 0 or max(start_rate, end_rate) == 0:
        raise ValueError("rates must be non-negative and not both zero")
    if duration <= 0 or steps < 1:
        raise ValueError("duration must be positive and steps >= 1")
    rng = np.random.default_rng(seed)
    offsets: list[float] = []
    step = duration / steps
    for index in range(steps):
        # Rate of the step's midpoint on the linear ramp.
        fraction = (index + 0.5) / steps
        rate = start_rate + (end_rate - start_rate) * fraction
        if rate <= 0:
            continue
        at = index * step
        while True:
            at += float(rng.exponential(1.0 / rate))
            if at >= (index + 1) * step:
                break
            offsets.append(at)
    return _assemble(
        offsets,
        bodies,
        {
            "process": "ramp",
            "start_rate": start_rate,
            "end_rate": end_rate,
            "steps": steps,
            "duration": duration,
            "seed": seed,
        },
    )


# --------------------------------------------------------------------------- #
# Recorded traces (JSONL)
# --------------------------------------------------------------------------- #
def save_trace(trace: RequestTrace, path: str | Path) -> None:
    """Write a trace as JSONL: one meta line, then one line per request.

    The encoding is canonical (sorted keys, fixed separators, ``repr``
    floats), so identical traces serialize to identical bytes.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"meta": trace.meta}, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        for request in trace.requests:
            line = json.dumps(
                {"at": request.at, "body": request.body},
                sort_keys=True,
                separators=(",", ":"),
            )
            handle.write(line + "\n")


def load_trace(path: str | Path) -> RequestTrace:
    """Read a JSONL trace written by :func:`save_trace` (meta line optional)."""
    requests: list[TraceRequest] = []
    meta: dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: not valid JSON: {exc}") from exc
            if "meta" in record and "at" not in record:
                meta = dict(record["meta"])
                continue
            if "at" not in record or "body" not in record:
                raise ValueError(f"{path}:{number}: needs 'at' and 'body' fields")
            requests.append(TraceRequest(at=float(record["at"]), body=record["body"]))
    requests.sort(key=lambda request: request.at)
    meta.setdefault("process", "recorded")
    meta["requests"] = len(requests)
    return RequestTrace(requests=requests, meta=meta)
