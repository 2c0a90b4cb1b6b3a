"""Service metrics: the serving layer measured with its own medicine.

Per-mode latency histograms are :class:`~repro.sketches.gk.GKSketch`
summaries over microsecond latencies — the very sketch the paper runs
on the live stream, here eating its own dogfood (the introduction's
motivating use case *is* latency percentile monitoring).  Latencies
wait in a bounded buffer per mode that the sketch absorbs in bulk
(``update_many``) when full and before every snapshot, so a snapshot's
counts and percentiles are the sketch's over every latency recorded.
Every other count is a ``serving.*`` key of the service's own stats
table: a service counts from zero, whatever served on its engine before.

A :class:`MetricsSnapshot` is a plain frozen dataclass, deliberately
free of any serving-layer references, so a caller can keep and compare
snapshots without holding the service.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List

from ..sketches.base import rank_for_phi
from ..sketches.gk import GKSketch
from ..stats import StatsTable

_MODES = ("quick", "accurate")
#: Latencies a mode buffers before its sketch absorbs them in bulk.
_BUFFERED = 1024


@dataclass(frozen=True)
class LatencySummary:
    """Request-latency percentiles of one mode, in seconds."""

    count: int
    p50: float
    p95: float
    p99: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        """The all-zero summary of a mode that served no requests."""
        return cls(count=0, p50=0.0, p95=0.0, p99=0.0)


@dataclass(frozen=True)
class MetricsSnapshot:
    """One consistent reading of a service's counters.

    ``coalescing_ratio`` is quick-batch TS merges per served quick
    request — the tentpole number: strictly below 1.0 means requests
    shared merges.
    """

    served: Dict[str, int]
    rejected: Dict[str, int]
    degraded_to_quick: int
    queue_depth: int
    peak_queue_depth: int
    coalesced_batches: int
    coalesced_requests: int
    max_batch: int
    ts_merges: int
    deduped_probes: int
    latency: Dict[str, LatencySummary] = field(default_factory=dict)
    #: epoch-batch warming passes the service ran, and the blocks those
    #: passes charged into the shared tier.
    warm_passes: int = 0
    warm_blocks: int = 0
    #: warming passes a disk fault aborted (the requests still answered).
    warm_failures: int = 0
    #: the share of ``ts_merges`` accurate searches spent, not batches.
    accurate_ts_merges: int = 0
    #: answers produced by a partial cluster gather (missing shards,
    #: widened bounds) — nonzero only when serving a degraded cluster.
    partial_gathers: int = 0

    @property
    def requests_served(self) -> int:
        """Total requests answered across modes."""
        return sum(self.served.values())

    @property
    def rejections(self) -> int:
        """Total requests rejected with ``Overloaded``."""
        return sum(self.rejected.values())

    @property
    def coalescing_ratio(self) -> float:
        """Batch TS merges per served quick request (< 1.0 = sharing wins)."""
        quick = self.served.get("quick", 0)
        if quick == 0:
            return 1.0
        return (self.ts_merges - self.accurate_ts_merges) / quick

    def p99(self, mode: str = "quick") -> float:
        """p99 latency of one mode in seconds (0.0 before any request)."""
        summary = self.latency.get(mode)
        return summary.p99 if summary is not None else 0.0


#: The :class:`MetricsSnapshot` counts a service keeps in its table,
#: each under ``serving.<name>``.
_KEYS = {
    name: "serving." + name
    for name in (
        "rejected_quick", "rejected_accurate", "degraded_to_quick",
        "peak_queue_depth", "coalesced_batches", "coalesced_requests",
        "max_batch", "ts_merges", "accurate_ts_merges", "deduped_probes",
        "warm_passes", "warm_blocks", "warm_failures", "partial_gathers",
    )
}
_PEAKS = frozenset({"serving.peak_queue_depth", "serving.max_batch"})


class ServiceMetrics:
    """Latency sketches and a :class:`~repro.stats.StatsTable` of counts
    for one service."""

    def __init__(self, epsilon: float = 0.01) -> None:
        self._lock = threading.Lock()
        self._latency = {mode: GKSketch(epsilon) for mode in _MODES}
        self._buffered: "Dict[str, List[int]]" = {mode: [] for mode in _MODES}
        self.table = StatsTable()
        self.table.declare(_KEYS.values())

    def record(self, mode: str, latency_seconds: float) -> None:
        """Record one served request's latency (its sketch counts it)."""
        with self._lock:
            buffered = self._buffered[mode]
            buffered.append(max(0, int(latency_seconds * 1e6)))
            if len(buffered) >= _BUFFERED:
                self._flush(mode)

    def _flush(self, mode: str) -> None:
        """Absorb ``mode``'s buffered latencies into its sketch (locked)."""
        self._latency[mode].update_many(self._buffered[mode])
        self._buffered[mode] = []

    def count(self, **amounts: int) -> None:
        """Add each amount to ``serving.<name>`` under the table's lock;
        the high-water marks (``max_batch``, ``peak_queue_depth``) rise
        to it instead."""
        table = self.table
        with table.lock:
            for name, amount in amounts.items():
                key = _KEYS[name]
                if key in _PEAKS:
                    table.peak(key, amount)
                else:
                    table[key] += amount

    def _latency_summary(self, mode: str) -> LatencySummary:
        self._flush(mode)
        sketch = self._latency[mode]
        if sketch.n == 0:
            return LatencySummary.empty()

        def _pct(phi: float) -> float:
            return sketch.query_rank(rank_for_phi(phi, sketch.n)) / 1e6

        return LatencySummary(
            count=sketch.n, p50=_pct(0.50), p95=_pct(0.95), p99=_pct(0.99)
        )

    def snapshot(self, queue_depth: int = 0) -> MetricsSnapshot:
        """Assemble one :class:`MetricsSnapshot`.

        ``queue_depth`` is the length of the service's queues, which
        the service passes in.
        """
        with self._lock:
            latency = {mode: self._latency_summary(mode) for mode in _MODES}
        table = dict(self.table)
        counts = {name: table[key] for name, key in _KEYS.items()}
        peak = max(counts["peak_queue_depth"], queue_depth)
        counts["peak_queue_depth"] = peak
        return MetricsSnapshot(
            served={mode: latency[mode].count for mode in _MODES},
            rejected={mode: counts.pop("rejected_" + mode) for mode in _MODES},
            queue_depth=queue_depth,
            latency=latency,
            **counts,
        )
