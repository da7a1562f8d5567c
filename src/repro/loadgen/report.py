"""The load-test result: SLO percentiles, throughput, shed/error counts.

One :class:`SampleReport` is the complete, JSON-ready outcome of one trace
replay — what the CLI prints and what ``repro loadtest`` gates on.
Latency percentiles come from a
:class:`~repro.service.histogram.LatencyHistogram` (bounded relative
error), so a million-request replay costs constant memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..service.histogram import LatencyHistogram

__all__ = ["SampleReport"]


@dataclass
class SampleReport:
    """Everything one replay measured.

    ``sent`` counts requests that reached the wire; ``transport_errors``
    counts requests that never got an HTTP status back (connect/reset
    failures).  Statuses are exclusive buckets: ``ok`` (2xx), ``rejected``
    (429 — backpressure, *not* an error), ``timeouts`` (504), ``client_errors``
    (other 4xx), ``server_errors`` (5xx except 504).
    """

    trace: dict[str, Any] = field(default_factory=dict)
    sent: int = 0
    ok: int = 0
    rejected: int = 0
    timeouts: int = 0
    client_errors: int = 0
    server_errors: int = 0
    transport_errors: int = 0
    golden_mismatches: int | None = None
    duration_seconds: float = 0.0
    offered_rate: float = 0.0
    status_counts: dict[int, int] = field(default_factory=dict)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Max lateness (seconds) between a request's scheduled offset and when
    #: the client actually fired it — the replay fidelity check.
    max_schedule_lag: float = 0.0
    #: Server-side /metrics deltas over the replay (batch occupancy etc.).
    server: dict[str, Any] | None = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(self, status: int, latency_seconds: float) -> None:
        self.sent += 1
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        self.latency.record(max(0.0, latency_seconds))
        if 200 <= status < 300:
            self.ok += 1
        elif status == 429:
            self.rejected += 1
        elif status == 504:
            self.timeouts += 1
        elif 400 <= status < 500:
            self.client_errors += 1
        else:
            self.server_errors += 1

    def record_transport_error(self) -> None:
        self.sent += 1
        self.transport_errors += 1

    # ------------------------------------------------------------------ #
    # Derived
    # ------------------------------------------------------------------ #
    @property
    def throughput(self) -> float:
        """Successful (2xx) responses per second over the replay."""
        return self.ok / self.duration_seconds if self.duration_seconds else 0.0

    def percentile_ms(self, q: float) -> float:
        return self.latency.percentile(q) * 1000.0

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready report (what ``repro loadtest --json`` prints)."""
        latency = self.latency.snapshot()
        return {
            "trace": self.trace,
            "sent": self.sent,
            "ok": self.ok,
            "rejected_429": self.rejected,
            "deadline_timeouts_504": self.timeouts,
            "client_errors_4xx": self.client_errors,
            "server_errors_5xx": self.server_errors,
            "transport_errors": self.transport_errors,
            "golden_mismatches": self.golden_mismatches,
            "duration_seconds": self.duration_seconds,
            "offered_rate_rps": self.offered_rate,
            "throughput_rps": self.throughput,
            "max_schedule_lag_seconds": self.max_schedule_lag,
            "status_counts": {str(k): v for k, v in sorted(self.status_counts.items())},
            "latency_ms": {
                key: (value * 1000.0 if key != "count" else value)
                for key, value in latency.items()
            },
            "server": self.server,
        }

    def summary(self) -> str:
        """Human-readable multi-line summary (the CLI's default output)."""
        lines = [
            f"trace: {self.trace.get('process', '?')} "
            f"({self.sent} requests over {self.duration_seconds:.2f}s, "
            f"offered {self.offered_rate:.1f} req/s)",
            f"  completed: {self.ok} ok, {self.rejected} shed (429), "
            f"{self.timeouts} deadline (504), {self.client_errors} 4xx, "
            f"{self.server_errors} 5xx, {self.transport_errors} transport errors",
            f"  throughput: {self.throughput:.1f} req/s"
            + (
                f"; golden mismatches: {self.golden_mismatches}"
                if self.golden_mismatches is not None
                else ""
            ),
            "  latency: "
            + "  ".join(
                f"{name}={self.percentile_ms(q):.1f}ms"
                for name, q in (("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p999", 99.9))
            )
            + f"  max={self.latency.max * 1000.0:.1f}ms",
            f"  schedule lag (client-side): max {self.max_schedule_lag * 1000.0:.1f}ms",
        ]
        if self.server:
            occupancy = self.server.get("batch_size_mean")
            if occupancy is not None:
                lines.append(
                    f"  server: batch occupancy mean {occupancy:.2f} "
                    f"(max {self.server.get('batch_size_max', 0)}), "
                    f"{self.server.get('batches_total', 0)} batches, "
                    f"{self.server.get('rejected_total', 0)} shed server-side"
                )
        return "\n".join(lines)
