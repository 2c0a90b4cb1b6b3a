"""The concurrent query service: epochs + coalescing + admission.

:class:`QueryService` sits in front of one
:class:`~repro.core.engine.HybridQuantileEngine` and accepts
``quantile(phi, mode)`` requests from any number of client threads
while ingest keeps running underneath.  The service owns no thread: a
request is run by a thread that waits for it.  :meth:`PendingQuery.
result` (so every ``quantile``) takes its still-queued request and
answers it on the calling thread, with no hand-off to a dispatcher and
back; a request nobody waits for (``submit`` without ``result``) is
answered by a later quick caller's batch or by ``drain`` / ``close``.

* **Admission** — a bounded queue per mode; past the bound, submit
  raises a typed :class:`~repro.serving.admission.Overloaded` (or, when
  configured, degrades accurate requests to the quick path).
* **Coalescing** — every queued quick request is taken as one batch
  (one batch at a time) against one pinned epoch: one TS, one
  rank-bound lookup per phi, every waiter fulfilled from it.  The
  batch waits only while an accurate search runs (at most
  ``coalesce_window_ms``), so requests arriving meanwhile join it.
* **Deduplication** — identical accurate probes (same phi and window)
  waiting in the queue share a single disk search; at most
  ``accurate_workers`` searches run at once, on any threads.
* **Metrics** — every request's queue + execution latency lands in
  per-mode GK histograms (:class:`~repro.serving.metrics.
  ServiceMetrics`), alongside queue depth, rejections and the
  coalescing ratio.

Requests return a :class:`PendingQuery` future; ``quantile`` is the
blocking convenience wrapper.  ``pause``/``resume`` freeze serving (the
queues keep admitting), which tests and benchmarks use to build batches
deterministically.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Deque, List, Optional, Tuple

from ..core.config import ServingConfig
from ..core.engine import HybridQuantileEngine
from ..core.epoch import SnapshotHandle
from ..core.query_path import QueryResult
from ..faults.errors import DiskFault
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
        # Set under the lock of the service that queued the request.
        self._service: Optional[QueryService] = None
        self._queued = False

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
        """Block until answered; raises the execution error if any.

        A request still queued is answered on the calling thread,
        together with its batch (quick) or queued duplicates (accurate).
        On timeout it stays queued: a later ``result`` answers it.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        if self._service is not None:
            self._service._serve(self, deadline)
        left = None if deadline is None else deadline - time.perf_counter()
        if not self._done.wait(left):
            raise TimeoutError(
                f"query phi={self.phi} not answered within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class QueryService:
    """Concurrent quantile serving over one engine; owns no thread."""

    def __init__(
        self,
        engine: HybridQuantileEngine,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServingConfig()
        self.admission = AdmissionController(self.config)
        self.metrics = ServiceMetrics()
        self._cv = threading.Condition(threading.Lock())
        self._quick: "Deque[PendingQuery]" = deque()
        self._accurate: "Deque[PendingQuery]" = deque()
        # Batches / searches in flight: one quick batch at a time, at
        # most ``accurate_workers`` searches.
        self._running = {"quick": 0, "accurate": 0}
        self._paused = False
        self._closed = False
        # The epoch the shared block tier was last warmed for.
        self._warmed_epoch: Optional[int] = None

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
            request._service = self
            request._queued = True
            self._queue(effective).append(request)
            if request.degraded_by_overload:
                self.metrics.note_degraded()
            self.metrics.observe_queue_depth(
                len(self._quick) + len(self._accurate)
            )
        return request

    def quantile(
        self,
        phi: float,
        mode: str = "quick",
        window_steps: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> QueryResult:
        """Submit and answer on this thread (closed-loop client call)."""
        request = self.submit(phi, mode, window_steps)
        try:
            return request.result(timeout)
        except TimeoutError:
            with self._cv:  # nobody else holds it: free its slot
                if request._queued:
                    self._queue(request.effective_mode).remove(request)
                    request._queued = False
                    self.admission.release(request.effective_mode)
            raise

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to execute."""
        with self._cv:
            return len(self._quick) + len(self._accurate)

    def metrics_snapshot(self) -> MetricsSnapshot:
        """One consistent reading of every service counter."""
        shared = self.engine.shared_cache
        backend = getattr(self.engine.disk, "backend", None)
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

        The first batch or group to handle an epoch runs the warming
        pass; later ones pinned at the same epoch find the blocks
        resident.  A no-op without a shared tier.
        """
        if self.engine.shared_cache is None or not phis:
            return
        with self._cv:
            if self._warmed_epoch == handle.epoch:
                return
            self._warmed_epoch = handle.epoch
        try:
            blocks = handle.warm(phis)
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
        """Freeze serving; submissions keep queueing (test hook)."""
        with self._cv:
            self._paused = True

    def resume(self) -> None:
        """Resume serving after :meth:`pause`."""
        with self._cv:
            self._paused = False
            self._cv.notify_all()

    def drain(self) -> None:
        """Serve the backlog on this thread until the queues are empty."""
        while True:
            with self._cv:
                queued = self._quick or self._accurate
                if not queued:
                    return
                if self._paused:
                    raise RuntimeError("cannot drain a paused service")
                head = queued[0]
            self._serve(head, None)

    def close(self) -> None:
        """Refuse new requests and serve everything still queued."""
        with self._cv:
            self._paused = False
            self._closed = True
            self._cv.notify_all()
        self.drain()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving side: on whichever thread waits
    # ------------------------------------------------------------------

    def _queue(self, mode: str) -> "Deque[PendingQuery]":
        return self._quick if mode == "quick" else self._accurate

    def _take(
        self, anchor: PendingQuery
    ) -> "Tuple[Optional[List[PendingQuery]], Optional[float]]":
        """Take ``anchor``'s batch or group if it may start now, else
        say how long to wait (``None``: until notified).  Under the lock.
        """
        config = self.config
        mode = anchor.effective_mode
        queue = self._queue(mode)
        if self._paused:
            return None, None
        if mode == "accurate":
            if self._running["accurate"] >= config.accurate_workers:
                return None, None
            key = dedupe_key(anchor)
            work = [r for r in queue if dedupe_key(r) == key]
        else:
            if self._running["quick"]:
                return None, None
            if config.coalesce and self._running["accurate"]:
                # A batch beside a search only splits the GIL with it.
                linger = (
                    anchor.submitted_at
                    + config.coalesce_window_ms / 1e3
                    - time.perf_counter()
                )
                if linger > 0:
                    return None, linger
            work = list(queue) if config.coalesce else [anchor]
        self._running[mode] += 1
        for request in work:
            queue.remove(request)
            request._queued = False
            self.admission.release(mode)
        return work, None

    def _serve(
        self, request: PendingQuery, deadline: Optional[float]
    ) -> None:
        """Answer ``request`` on this thread if it is still queued; at
        ``deadline`` leave it queued, for a later waiter."""
        with self._cv:
            work = None
            while request._queued:
                work, wait = self._take(request)
                if work is not None:
                    break
                if deadline is not None:
                    left = deadline - time.perf_counter()
                    if left <= 0:
                        return
                    wait = left if wait is None else min(wait, left)
                self._cv.wait(wait)
        if work is None:
            return
        mode = request.effective_mode
        try:
            if mode == "quick":
                self._answer_batch(work)
            else:
                self._search(work)
        finally:
            with self._cv:
                self._running[mode] -= 1
                self._cv.notify_all()

    def _answer_batch(self, batch: "List[PendingQuery]") -> None:
        try:
            answer_quick_batch(
                self.engine, batch, self.metrics, warm=self._maybe_warm
            )
        except BaseException:
            # Every waiter got the exception through its future.
            pass
        now = time.perf_counter()
        for request in batch:
            if request._error is None:
                self.metrics.record("quick", now - request.submitted_at)

    def _search(self, group: "List[PendingQuery]") -> None:
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
            # Every waiter, this thread's among them, gets the
            # exception through its future.
            for request in group:
                request._fail(exc)
            return
        self.metrics.note_merges(merges)
        if getattr(result, "partial", None) is not None:
            self.metrics.note_partial(len(group))
        if len(group) > 1:
            self.metrics.note_dedup(len(group) - 1)
        now = time.perf_counter()
        for request in group:
            request._fulfill(result, epoch)
            self.metrics.record("accurate", now - request.submitted_at)
