"""Service-side counters surfaced by the ``/metrics`` endpoint.

Tracks exactly what the ROADMAP's serving story needs to be observable:
request/error counts, micro-batch sizes, result-cache hit rates, the
dataset instance-LRU hit rates (from :mod:`repro.datasets.scenarios`),
per-algorithm latency, and — the SLO signals — streaming latency
histograms (:class:`~repro.service.histogram.LatencyHistogram`) answering
p50/p90/p99/p999 globally and per algorithm, plus admission-control
counters (429 rejections, deadline timeouts).  All updates take the
internal lock — request handling runs on the event loop while batches
execute in a worker thread.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from ..datasets import instance_cache_stats
from .histogram import LatencyHistogram

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Thread-safe counters for one :class:`~repro.service.server.SolverService`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.time()
        self.requests_total = 0
        self.responses_total = 0
        self.errors_total = 0
        self.rejected_total = 0
        self.timeouts_total = 0
        self.batches_total = 0
        self.batched_points_total = 0
        self.max_batch_size = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.latency = LatencyHistogram()
        #: Computed responses only: ``Retry-After`` scales with how long the
        #: admitted work takes, which sub-millisecond cache hits would hide.
        self.miss_latency = LatencyHistogram()
        self._algorithms: dict[str, dict[str, float]] = {}
        self._algorithm_latency: dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_request(self) -> None:
        with self._lock:
            self.requests_total += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors_total += 1

    def record_rejected(self) -> None:
        """One request shed with a 429 by admission control."""
        with self._lock:
            self.rejected_total += 1

    def record_timeout(self) -> None:
        """One request that missed its deadline (504)."""
        with self._lock:
            self.timeouts_total += 1

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches_total += 1
            self.batched_points_total += size
            self.max_batch_size = max(self.max_batch_size, size)

    def record_response(self, algorithm: str, seconds: float, *, cached: bool) -> None:
        with self._lock:
            self.responses_total += 1
            if cached:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
                self.miss_latency.record(max(0.0, seconds))
            self.latency.record(max(0.0, seconds))
            histogram = self._algorithm_latency.get(algorithm)
            if histogram is None:
                histogram = self._algorithm_latency[algorithm] = LatencyHistogram()
            histogram.record(max(0.0, seconds))
            stats = self._algorithms.setdefault(
                algorithm,
                {"count": 0.0, "seconds_total": 0.0, "seconds_min": float("inf"), "seconds_max": 0.0},
            )
            stats["count"] += 1
            stats["seconds_total"] += seconds
            stats["seconds_min"] = min(stats["seconds_min"], seconds)
            stats["seconds_max"] = max(stats["seconds_max"], seconds)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready view of every counter (the ``/metrics`` body)."""
        with self._lock:
            batches = self.batches_total
            cache_lookups = self.cache_hits + self.cache_misses
            algorithms = {
                name: {
                    "count": int(stats["count"]),
                    "seconds_total": stats["seconds_total"],
                    "seconds_mean": stats["seconds_total"] / stats["count"],
                    "seconds_min": stats["seconds_min"],
                    "seconds_max": stats["seconds_max"],
                    "latency": self._algorithm_latency[name].snapshot(),
                }
                for name, stats in sorted(self._algorithms.items())
            }
            return {
                "uptime_seconds": time.time() - self._started,
                "requests_total": self.requests_total,
                "responses_total": self.responses_total,
                "errors_total": self.errors_total,
                "rejected_total": self.rejected_total,
                "deadline_timeouts_total": self.timeouts_total,
                "batches_total": batches,
                "batched_points_total": self.batched_points_total,
                "batch_size_mean": (self.batched_points_total / batches) if batches else 0.0,
                "batch_size_max": self.max_batch_size,
                "latency": self.latency.snapshot(),
                "result_cache": {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "hit_rate": (self.cache_hits / cache_lookups) if cache_lookups else 0.0,
                },
                "instance_cache": instance_cache_stats(),
                "algorithms": algorithms,
            }
