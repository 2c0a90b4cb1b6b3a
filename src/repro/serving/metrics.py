"""Service metrics: the serving layer measured with its own medicine.

Per-mode latency histograms are :class:`~repro.sketches.gk.GKSketch`
summaries over microsecond latencies — the very sketch the paper runs
on the live stream, here eating its own dogfood (the introduction's
motivating use case *is* latency percentile monitoring).  Sketches are
snapshotted copy-on-query, so reading p99 never blocks or corrupts a
concurrent recording thread.

A :class:`MetricsSnapshot` is a plain frozen dataclass, deliberately
free of any serving-layer references, so a caller can keep and compare
snapshots without holding the service.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sketches.base import rank_for_phi
from ..sketches.gk import GKSketch

_MODES = ("quick", "accurate")


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
    #: shared-block-cache counters pulled from the engine at snapshot
    #: time (all zero when the shared tier is disabled).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
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
    #: storage-backend request counters pulled from the engine at
    #: snapshot time (all zero off the object backend).
    object_gets: int = 0
    object_puts: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Shared-cache hits per lookup (0.0 with the tier disabled)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

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


class ServiceMetrics:
    """Thread-safe counters and latency sketches for one service."""

    def __init__(self, epsilon: float = 0.01) -> None:
        self._lock = threading.Lock()
        self._latency = {mode: GKSketch(epsilon) for mode in _MODES}
        self._served = {mode: 0 for mode in _MODES}
        self._degraded_to_quick = 0
        self._peak_queue_depth = 0
        self._coalesced_batches = 0
        self._coalesced_requests = 0
        self._max_batch = 0
        self._ts_merges = 0
        self._accurate_ts_merges = 0
        self._deduped_probes = 0
        self._warm_passes = 0
        self._warm_blocks = 0
        self._warm_failures = 0
        self._partial_gathers = 0

    def record(self, mode: str, latency_seconds: float) -> None:
        """Count one served request and record its latency."""
        micros = max(0, int(latency_seconds * 1e6))
        with self._lock:
            self._served[mode] += 1
        # GK has its own mutation lock; keeping it outside ours avoids
        # holding two locks at once.
        self._latency[mode].update(micros)

    def note_degraded(self) -> None:
        """Count one accurate request degraded to quick under load."""
        with self._lock:
            self._degraded_to_quick += 1

    def note_partial(self, answers: int = 1) -> None:
        """Count answers served from a partial (missing-shard) gather."""
        with self._lock:
            self._partial_gathers += answers

    def note_batch(self, requests: int, merges: int) -> None:
        """Count one coalesced quick batch and the merges it spent."""
        with self._lock:
            self._coalesced_batches += 1
            self._coalesced_requests += requests
            self._max_batch = max(self._max_batch, requests)
            self._ts_merges += merges

    def note_merges(self, merges: int) -> None:
        """Count TS merges spent outside a coalesced batch."""
        with self._lock:
            self._ts_merges += merges
            self._accurate_ts_merges += merges

    def note_dedup(self, shared: int) -> None:
        """Count accurate probes answered by another request's search."""
        with self._lock:
            self._deduped_probes += shared

    def note_warm(self, blocks: int) -> None:
        """Count one epoch-batch warming pass and its charged blocks."""
        with self._lock:
            self._warm_passes += 1
            self._warm_blocks += blocks

    def note_warm_failure(self) -> None:
        """Count one warming pass aborted by a disk fault."""
        with self._lock:
            self._warm_failures += 1

    def observe_queue_depth(self, depth: int) -> None:
        """Track the queue-depth high-water mark."""
        with self._lock:
            self._peak_queue_depth = max(self._peak_queue_depth, depth)

    def _latency_summary(self, mode: str) -> LatencySummary:
        sketch = self._latency[mode].snapshot()
        if sketch.n == 0:
            return LatencySummary.empty()

        def _pct(phi: float) -> float:
            return sketch.query_rank(rank_for_phi(phi, sketch.n)) / 1e6

        return LatencySummary(
            count=sketch.n, p50=_pct(0.50), p95=_pct(0.95), p99=_pct(0.99)
        )

    def snapshot(
        self,
        queue_depth: int = 0,
        rejected: Optional[Dict[str, int]] = None,
        cache: Optional[object] = None,
        backend: Optional[object] = None,
    ) -> MetricsSnapshot:
        """Assemble one consistent :class:`MetricsSnapshot`.

        ``queue_depth`` and ``rejected`` live with the admission
        controller; the service passes them in, together with the
        engine's :class:`~repro.storage.shared_cache.SharedCacheStats`
        as ``cache`` when the shared tier is enabled and the storage
        backend's :class:`~repro.storage.backends.BackendStats` as
        ``backend`` when the engine exposes one.
        """
        # Latency summaries read sketch snapshots outside the counter
        # lock (each sketch copy-on-queries under its own lock).
        latency = {mode: self._latency_summary(mode) for mode in _MODES}
        with self._lock:
            return MetricsSnapshot(
                served=dict(self._served),
                rejected=dict(rejected or {}),
                degraded_to_quick=self._degraded_to_quick,
                queue_depth=queue_depth,
                peak_queue_depth=max(self._peak_queue_depth, queue_depth),
                coalesced_batches=self._coalesced_batches,
                coalesced_requests=self._coalesced_requests,
                max_batch=self._max_batch,
                ts_merges=self._ts_merges,
                deduped_probes=self._deduped_probes,
                latency=latency,
                cache_hits=getattr(cache, "hits", 0),
                cache_misses=getattr(cache, "misses", 0),
                cache_evictions=getattr(cache, "evictions", 0),
                cache_invalidations=getattr(cache, "invalidated_blocks", 0),
                warm_passes=self._warm_passes,
                warm_blocks=self._warm_blocks,
                warm_failures=self._warm_failures,
                accurate_ts_merges=self._accurate_ts_merges,
                partial_gathers=self._partial_gathers,
                object_gets=getattr(backend, "gets", 0),
                object_puts=getattr(backend, "puts", 0),
            )
