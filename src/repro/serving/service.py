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
Waiters wait on the service's one condition, not an event each.

* **Admission** — a bounded queue per mode; past the bound, submit
  raises a typed :class:`~repro.serving.admission.Overloaded` (or, when
  configured, degrades accurate requests to the quick path).
* **Coalescing** — every queued quick request is taken as one batch
  (one batch at a time) and answered off one current TS, read as the
  engine's quick path reads it: one rank-bound lookup per phi, every
  waiter fulfilled with the TS's epoch.  A batch pins only to warm the
  shared tier for a new epoch, as a search does through its own pin.
  The batch waits only while an accurate search runs (at most
  :data:`BATCH_WAIT_S`), so requests arriving meanwhile join it.
* **Deduplication** — identical accurate probes (same phi and window)
  waiting in the queue share a single disk search; at most
  ``accurate_workers`` searches run at once, on any threads.
* **Metrics** — every request's queue + execution latency lands in
  per-mode GK histograms (:class:`~repro.serving.metrics.
  ServiceMetrics`, fed in bulk), alongside queue depth, rejections and
  the coalescing ratio.

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
from ..core.query_path import QueryResult, check_mode
from ..faults.errors import DiskFault
from ..sketches.base import check_phi
from .admission import Overloaded, admit
from .coalescer import answer_quick_batch, dedupe_key
from .metrics import MetricsSnapshot, ServiceMetrics


_logger = logging.getLogger(__name__)

#: The longest a quick batch waits behind a running accurate search
#: before it is taken anyway (requests arriving meanwhile join it).
#: This wait is the quick/accurate latency trade on one GIL: shorter
#: speeds quick answers and slows the search they share the GIL with.
BATCH_WAIT_S = 2e-3


class PendingQuery:
    """A submitted request; resolves to a
    :class:`~repro.core.engine.QueryResult`."""

    def __init__(
        self,
        service: "QueryService",
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
        #: the epoch of the state the answer was read at (once answered).
        self.epoch: Optional[int] = None
        #: whether the request has been answered (or failed).
        self.done = False
        self._result: Optional[QueryResult] = None
        self._error: Optional[BaseException] = None
        # The service that queues the request and answers ``result``.
        self._service = service
        self._queued = False

    @property
    def degraded_by_overload(self) -> bool:
        """Whether admission downgraded this request to the quick path."""
        return self.mode == "accurate" and self.effective_mode == "quick"

    def _settle(self, result=None, epoch=None, error=None) -> None:
        """Answer (or fail) the request.  Waiters on a queued one wait on
        its service's condition, notified after each batch and search."""
        self._result, self.epoch, self._error = result, epoch, error
        self.done = True

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block until answered; raises the execution error if any.

        A request still queued is answered on the calling thread,
        together with its batch (quick) or queued duplicates (accurate).
        On timeout it stays queued: a later ``result`` answers it.  A
        settled request returns its answer at once.
        """
        if not self.done:
            deadline = None if timeout is None else (
                time.perf_counter() + timeout
            )
            self._service._serve(self, deadline)
        if not self.done:
            raise TimeoutError(
                f"query phi={self.phi} not answered within {timeout}s"
            )
        if self._error is not None:
            raise self._error
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
        check_mode(mode)
        check_phi(phi)
        with self._cv:
            if self._closed:
                raise RuntimeError("service is closed")
            try:
                effective = admit(
                    self.config, mode, len(self._quick), len(self._accurate)
                )
            except Overloaded:
                self.metrics.count(**{"rejected_" + mode: 1})
                raise
            request = PendingQuery(self, phi, mode, effective, window_steps)
            request._queued = True
            self._queue(effective).append(request)
            if request.degraded_by_overload:
                self.metrics.count(degraded_to_quick=1)
            self.metrics.count(
                peak_queue_depth=len(self._quick) + len(self._accurate)
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
            raise

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to execute."""
        with self._cv:
            return len(self._quick) + len(self._accurate)

    def metrics_snapshot(self) -> MetricsSnapshot:
        """One consistent reading of every service counter."""
        return self.metrics.snapshot(queue_depth=self.queue_depth)

    def _maybe_warm(self, epoch, phis: "List[float]", handle=None) -> None:
        """Warm the shared tier once per epoch for the phis in flight.

        The first batch or search to read an epoch runs the warming
        pass, through the search's ``handle`` or one pinned for the
        pass; later ones at the same epoch find the blocks resident.
        A no-op without a shared tier.
        """
        if self.engine.shared_cache is None or self._warmed_epoch == epoch:
            return
        with self._cv:
            if self._warmed_epoch == epoch:
                return
            self._warmed_epoch = epoch
        try:
            warm = handle.warm if handle else self.engine.warm_shared_cache
            blocks = warm(list(dict.fromkeys(phis)))
        except DiskFault as fault:
            # Best effort: the requests that triggered the pass answer
            # without it, and the epoch stays marked (no retry storm).
            self.metrics.count(warm_failures=1)
            _logger.warning("warming pass for epoch %s failed: %r", epoch, fault)
            return
        self.metrics.count(warm_passes=1, warm_blocks=blocks)

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
        """Take ``anchor``'s batch or group if it is queued and may start
        now, else say how long to wait (``None``: until notified); locked.
        """
        config = self.config
        mode = anchor.effective_mode
        queue = self._queue(mode)
        if self._paused or not anchor._queued:
            return None, None
        if mode == "accurate":
            if self._running["accurate"] >= config.accurate_workers:
                return None, None
            key = dedupe_key(anchor)
            work = [r for r in queue if dedupe_key(r) == key]
        else:
            if self._running["quick"]:
                return None, None
            if self._running["accurate"]:
                # A batch beside a search only splits the GIL with it.
                linger = (
                    anchor.submitted_at + BATCH_WAIT_S - time.perf_counter()
                )
                if linger > 0:
                    return None, linger
            work = list(queue)
        self._running[mode] += 1
        for request in work:
            queue.remove(request)
            request._queued = False
        return work, None

    def _serve(
        self, request: PendingQuery, deadline: Optional[float]
    ) -> None:
        """Wait until ``request`` is answered, on this thread if it is
        still queued; at ``deadline`` leave it (queued: to a later waiter)."""
        with self._cv:
            work = None
            while not request.done:
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
            answer_quick_batch(self.engine, batch, self.metrics)
        except BaseException:
            # Every waiter got the exception through its future.
            pass
        now = time.perf_counter()
        answered = [r for r in batch if r._error is None]
        for request in answered:
            self.metrics.record("quick", now - request.submitted_at)
        if answered:
            self._maybe_warm(answered[-1].epoch, [r.phi for r in answered])

    def _search(self, group: "List[PendingQuery]") -> None:
        head = group[0]
        try:
            with self.engine.pin() as handle:
                self._maybe_warm(handle.epoch, [head.phi], handle)
                result = handle.quantile(head.phi, "accurate", head.window_steps)
        except BaseException as exc:
            # Every waiter, this thread's among them, gets the
            # exception through its future.
            for request in group:
                request._settle(error=exc)
            return
        merges = handle.ts_merges_built
        self.metrics.count(
            ts_merges=merges,
            accurate_ts_merges=merges,
            partial_gathers=len(group) if result.partial is not None else 0,
            deduped_probes=len(group) - 1,
        )
        now = time.perf_counter()
        for request in group:
            request._settle(result, handle.epoch)
            self.metrics.record("accurate", now - request.submitted_at)
