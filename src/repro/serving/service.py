"""The concurrent query service: epochs + coalescing + admission.

:class:`QueryService` sits in front of one
:class:`~repro.core.engine.HybridQuantileEngine` and accepts
``quantile(phi, mode)`` requests from any number of client threads
while ingest keeps running underneath:

* **Admission** — a bounded queue per mode; past the bound, submit
  raises a typed :class:`~repro.serving.admission.Overloaded` (or, when
  configured, degrades accurate requests to the quick path).
* **Coalescing** — quick requests arriving within a window are batched
  against one pinned epoch: one TS, one rank-bound lookup per phi,
  every waiter fulfilled from it.
* **Deduplication** — identical accurate probes (same phi and window)
  waiting in the queue share a single disk search.
* **Metrics** — every request's queue + execution latency lands in
  per-mode GK histograms (:class:`~repro.serving.metrics.
  ServiceMetrics`), alongside queue depth, rejections and the
  coalescing ratio.

Requests return a :class:`PendingQuery` future; ``quantile`` is the
blocking convenience wrapper.  ``pause``/``resume`` freeze dispatch (the
queues keep admitting), which tests and benchmarks use to build batches
deterministically.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Deque, List, Optional

from ..core.config import ServingConfig
from ..core.engine import HybridQuantileEngine
from ..core.epoch import SnapshotHandle
from ..core.query_path import QueryResult
from ..faults.errors import DiskFault
from ..storage.cache import BlockCache
from .admission import AdmissionController, Overloaded  # noqa: F401
from .coalescer import answer_quick_batch, dedupe_key
from .metrics import MetricsSnapshot, ServiceMetrics


_logger = logging.getLogger(__name__)


class PendingQuery:
    """A submitted request; resolves to a
    :class:`~repro.core.engine.QueryResult`."""

    def __init__(
        self,
        phi: float,
        mode: str,
        effective_mode: str,
        window_steps: Optional[int],
    ) -> None:
        #: the quantile fraction requested.
        self.phi = phi
        #: the mode the caller asked for.
        self.mode = mode
        #: the mode the request was admitted under (differs only when
        #: an accurate request was degraded to quick under overload).
        self.effective_mode = effective_mode
        self.window_steps = window_steps
        self.submitted_at = time.perf_counter()
        #: the engine epoch the answer was pinned at (set on fulfill).
        self.epoch: Optional[int] = None
        self._done = threading.Event()
        self._result: Optional[QueryResult] = None
        self._error: Optional[BaseException] = None

    @property
    def degraded_by_overload(self) -> bool:
        """Whether admission downgraded this request to the quick path."""
        return self.mode == "accurate" and self.effective_mode == "quick"

    @property
    def done(self) -> bool:
        """Whether the request has been answered (or failed)."""
        return self._done.is_set()

    def _fulfill(self, result: QueryResult, epoch: int) -> None:
        self.epoch = epoch
        self._result = result
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block until answered; raises the execution error if any."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query phi={self.phi} not answered within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class QueryService:
    """Thread-based concurrent quantile serving over one engine."""

    def __init__(
        self,
        engine: HybridQuantileEngine,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServingConfig()
        self.admission = AdmissionController(self.config)
        self.metrics = ServiceMetrics()
        self._cv = threading.Condition()
        self._quick: "Deque[PendingQuery]" = deque()
        self._accurate: "Deque[PendingQuery]" = deque()
        self._paused = False
        self._closed = False
        # Epoch-batch cache warming: when the engine carries a shared
        # block tier, the service prefetches the block ranges popular
        # phis will probe — once per epoch, through a long-lived
        # *follower* cache (its per-run state is pruned when compaction
        # retires runs; the unbounded-growth fix has a production user
        # here, since this cache spans epochs).
        shared = engine.shared_cache
        self._warm_cache: Optional[BlockCache] = (
            BlockCache(
                engine.disk,
                enabled=engine.config.block_cache,
                shared=shared,
                follow_invalidation=True,
            )
            if shared is not None
            else None
        )
        self._warm_lock = threading.Lock()
        self._warmed_epoch: Optional[int] = None
        self._threads: List[threading.Thread] = []
        # One dispatcher: the coalescer batches everything that arrived
        # in a window into one pass, a second would only split batches.
        self._spawn(self._quick_loop, "repro-serve-quick")
        for index in range(self.config.accurate_workers):
            self._spawn(self._accurate_loop, f"repro-serve-acc-{index}")

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def submit(
        self,
        phi: float,
        mode: str = "quick",
        window_steps: Optional[int] = None,
    ) -> PendingQuery:
        """Enqueue one request; returns its future.

        Raises :class:`Overloaded` immediately when the queue bound is
        hit, and ``RuntimeError`` after :meth:`close`.
        """
        if mode not in ("quick", "accurate"):
            raise ValueError("mode must be 'quick' or 'accurate'")
        if not 0 < phi <= 1:
            raise ValueError("phi must be in (0, 1]")
        with self._cv:
            if self._closed:
                raise RuntimeError("service is closed")
            effective = self.admission.admit(mode)
            request = PendingQuery(phi, mode, effective, window_steps)
            if effective == "quick":
                self._quick.append(request)
            else:
                self._accurate.append(request)
            if request.degraded_by_overload:
                self.metrics.note_degraded()
            self.metrics.observe_queue_depth(
                len(self._quick) + len(self._accurate)
            )
            self._cv.notify_all()
        return request

    def quantile(
        self,
        phi: float,
        mode: str = "quick",
        window_steps: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> QueryResult:
        """Submit and block for the answer (closed-loop client call)."""
        return self.submit(phi, mode, window_steps).result(timeout)

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to execute."""
        with self._cv:
            return len(self._quick) + len(self._accurate)

    def metrics_snapshot(self) -> MetricsSnapshot:
        """One consistent reading of every service counter."""
        shared = self.engine.shared_cache
        disk = getattr(self.engine, "disk", None)
        backend = getattr(disk, "backend", None)
        return self.metrics.snapshot(
            queue_depth=self.queue_depth,
            rejected=self.admission.rejections(),
            cache=shared.stats() if shared is not None else None,
            backend=backend.stats() if backend is not None else None,
        )

    def _maybe_warm(
        self, handle: SnapshotHandle, phis: "List[float]"
    ) -> None:
        """Warm the shared tier once per epoch for the phis in flight.

        The first dispatcher to handle an epoch runs the warming pass;
        later batches and accurate groups pinned at the same epoch find
        the blocks resident.  A no-op without a shared tier.
        """
        if self._warm_cache is None or not phis:
            return
        with self._warm_lock:
            if self._warmed_epoch == handle.epoch:
                return
            self._warmed_epoch = handle.epoch
        try:
            blocks = handle.warm(phis, cache=self._warm_cache)
        except DiskFault as fault:
            # Best effort: the requests that triggered the pass answer
            # without it, and the epoch stays marked (no retry storm).
            self.metrics.note_warm_failure()
            _logger.warning(
                "warming pass for epoch %d failed: %r", handle.epoch, fault
            )
            return
        self.metrics.note_warm(blocks)

    def pause(self) -> None:
        """Freeze dispatch; submissions keep queueing (test hook)."""
        with self._cv:
            self._paused = True

    def resume(self) -> None:
        """Resume dispatch after :meth:`pause`."""
        with self._cv:
            self._paused = False
            self._cv.notify_all()

    def drain(self) -> None:
        """Block until the queues are empty (dispatch keeps running)."""
        with self._cv:
            while self._quick or self._accurate:
                if self._paused:
                    raise RuntimeError("cannot drain a paused service")
                self._cv.wait(0.01)

    def close(self) -> None:
        """Serve everything still queued, then stop the workers."""
        with self._cv:
            self._paused = False
            self._closed = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch side
    # ------------------------------------------------------------------

    def _take_quick_batch(self) -> "Optional[List[PendingQuery]]":
        """Take the next coalesced batch (None = shut down)."""
        config = self.config
        with self._cv:
            # close() clears the pause flag, so after shutdown this
            # reduces to draining the backlog and returning None.
            while (not self._quick or self._paused) and not self._closed:
                self._cv.wait(0.05)
            if not self._quick:
                return None
            batch = [self._quick.popleft()]
            self.admission.release("quick")
            if not config.coalesce:
                self._cv.notify_all()
                return batch
            deadline = time.perf_counter() + config.coalesce_window_ms / 1e3
            while len(batch) < config.max_queue:
                while self._quick and len(batch) < config.max_queue:
                    batch.append(self._quick.popleft())
                    self.admission.release("quick")
                if len(batch) >= config.max_queue or self._closed:
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                # Linger briefly so concurrent arrivals join this
                # batch; submit() notifies the condition on arrival.
                self._cv.wait(remaining)
            self._cv.notify_all()
            return batch

    def _quick_loop(self) -> None:
        while True:
            batch = self._take_quick_batch()
            if batch is None:
                return
            try:
                answer_quick_batch(
                    self.engine, batch, self.metrics, warm=self._maybe_warm
                )
            except BaseException:
                # Waiters got the exception via their futures; the
                # dispatcher survives to serve the next batch.
                pass
            now = time.perf_counter()
            for request in batch:
                if request._error is None:
                    self.metrics.record("quick", now - request.submitted_at)

    def _take_accurate_group(self) -> "Optional[List[PendingQuery]]":
        """Take one request plus all queued duplicates of it."""
        with self._cv:
            while (
                not self._accurate or self._paused
            ) and not self._closed:
                self._cv.wait(0.05)
            if not self._accurate:
                return None
            head = self._accurate.popleft()
            self.admission.release("accurate")
            group = [head]
            key = dedupe_key(head)
            kept: "Deque[PendingQuery]" = deque()
            while self._accurate:
                request = self._accurate.popleft()
                if dedupe_key(request) == key:
                    group.append(request)
                    self.admission.release("accurate")
                else:
                    kept.append(request)
            self._accurate = kept
            self._cv.notify_all()
            return group

    def _accurate_loop(self) -> None:
        while True:
            group = self._take_accurate_group()
            if group is None:
                return
            head = group[0]
            try:
                with self.engine.pin() as handle:
                    self._maybe_warm(handle, [head.phi])
                    result = handle.quantile(
                        head.phi,
                        mode="accurate",
                        window_steps=head.window_steps,
                    )
                    epoch = handle.epoch
                    merges = handle.ts_merges_built
            except BaseException as exc:
                for request in group:
                    request._fail(exc)
                continue
            self.metrics.note_merges(merges)
            if getattr(result, "partial", None) is not None:
                self.metrics.note_partial(len(group))
            if len(group) > 1:
                self.metrics.note_dedup(len(group) - 1)
            now = time.perf_counter()
            for request in group:
                request._fulfill(result, epoch)
                self.metrics.record(
                    "accurate", now - request.submitted_at
                )
