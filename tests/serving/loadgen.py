"""Deterministic load generation against a :class:`QueryService`.

Two canonical harness shapes (Schroeder et al.'s closed/open-loop
distinction — the choice changes what overload looks like):

* **Closed loop** — N client threads, each keeping exactly one request
  in flight: issue, block on the answer, repeat.  Throughput self-
  limits, so this measures how much sharing (coalescing) the service
  extracts from concurrency.
* **Open loop** — arrivals come from a seeded Poisson process that does
  *not* wait for answers, the shape real user traffic has: each
  admitted arrival gets a thread of its own that waits for (and so
  serves) its answer.  Past saturation the queue would grow without
  bound; this is the mode that exercises admission control's typed
  rejections.

All randomness (phi choices, inter-arrival gaps) is drawn up front
from one seeded generator, so two runs against the same engine state
issue the identical request sequence.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import Overloaded, PendingQuery, QueryService


@dataclass
class LoadResult:
    """Outcome of one load-generation run.

    ``answers`` holds one ``(phi, value, epoch)`` triple per served
    request — the replay material for bit-identity checks.
    """

    requests: int
    served: int
    rejected: int
    degraded: int
    wall_seconds: float
    answers: List[Tuple[float, int, int]] = field(default_factory=list)

    @property
    def throughput_qps(self) -> float:
        """Served requests per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.served / self.wall_seconds


class LoadGenerator:
    """Seeded request generator driving one service."""

    def __init__(
        self,
        service: QueryService,
        phis: Sequence[float] = (0.25, 0.5, 0.75, 0.95, 0.99),
        seed: int = 0,
    ) -> None:
        self.service = service
        self.phis = list(phis)
        self.seed = seed

    def _phi_plan(self, count: int, stream: int) -> List[float]:
        """Deterministic phi sequence for one client/arrival stream."""
        rng = np.random.default_rng((self.seed, stream))
        indexes = rng.integers(0, len(self.phis), size=count)
        return [self.phis[int(i)] for i in indexes]

    def closed_loop(
        self,
        clients: int,
        requests_per_client: int,
        mode: str = "quick",
        pause_until_queued: int = 0,
        timeout: float = 60.0,
    ) -> LoadResult:
        """N threads, one outstanding request each.

        With ``pause_until_queued > 0`` the service is paused first and
        resumed only once that many requests are waiting — guaranteeing
        the first dispatch sees a real batch (the deterministic warmup
        the coalescing assertion relies on).
        """
        plans = [
            self._phi_plan(requests_per_client, client)
            for client in range(clients)
        ]
        lock = threading.Lock()
        outcomes = {"served": 0, "rejected": 0, "degraded": 0}
        answers: List[Tuple[float, int, int]] = []

        def _run_client(plan: List[float]) -> None:
            for phi in plan:
                try:
                    request = self.service.submit(phi, mode)
                    result = request.result(timeout)
                except Overloaded:
                    with lock:
                        outcomes["rejected"] += 1
                    continue
                with lock:
                    outcomes["served"] += 1
                    if result.degraded or request.degraded_by_overload:
                        outcomes["degraded"] += 1
                    answers.append((phi, result.value, request.epoch or 0))

        if pause_until_queued > 0:
            self.service.pause()
        threads = [
            threading.Thread(
                target=_run_client, args=(plan,), name=f"repro-load-{i}"
            )
            for i, plan in enumerate(plans)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        if pause_until_queued > 0:
            target = min(pause_until_queued, clients)
            deadline = time.perf_counter() + timeout
            while (
                self.service.queue_depth < target
                and time.perf_counter() < deadline
            ):
                time.sleep(0.0005)
            self.service.resume()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        return LoadResult(
            requests=clients * requests_per_client,
            served=outcomes["served"],
            rejected=outcomes["rejected"],
            degraded=outcomes["degraded"],
            wall_seconds=wall,
            answers=answers,
        )

    def open_loop(
        self,
        rate_qps: float,
        total_requests: int,
        mode: str = "accurate",
        timeout: float = 60.0,
        mean_wait_seconds: Optional[float] = None,
    ) -> LoadResult:
        """Poisson arrivals that never wait for answers.

        Inter-arrival gaps are exponential with mean ``1/rate_qps``,
        drawn once from the seeded generator.  Submissions that hit the
        admission bound count as rejected; each admitted one is awaited
        by a thread of its own, like a client's, so arrivals never wait
        for earlier answers.  ``mean_wait_seconds`` optionally stalls
        between submit attempts *instead of* the drawn gaps (testing
        hook for forcing overload without wall-clock sensitivity).
        """
        rng = np.random.default_rng((self.seed, 99991))
        if rate_qps <= 0:
            raise ValueError("rate_qps must be > 0")
        gaps = (
            rng.exponential(1.0 / rate_qps, size=total_requests)
            if mean_wait_seconds is None
            else np.full(total_requests, mean_wait_seconds)
        )
        phis = self._phi_plan(total_requests, stream=10_000)
        pending: List[Tuple[float, PendingQuery, threading.Thread]] = []

        def _await(request: PendingQuery) -> None:
            try:
                request.result(timeout)
            except Exception:  # re-raised below, in arrival order
                pass

        rejected = 0
        started = time.perf_counter()
        next_at = started
        for phi, gap in zip(phis, gaps):
            next_at += float(gap)
            delay = next_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                request = self.service.submit(phi, mode)
            except Overloaded:
                rejected += 1
                continue
            waiter = threading.Thread(
                target=_await, args=(request,), name="repro-open-waiter"
            )
            waiter.start()
            pending.append((phi, request, waiter))
        served = 0
        degraded = 0
        answers: List[Tuple[float, int, int]] = []
        for phi, request, waiter in pending:
            waiter.join()
            result = request.result(timeout)
            served += 1
            if result.degraded or request.degraded_by_overload:
                degraded += 1
            answers.append((phi, result.value, request.epoch or 0))
        wall = time.perf_counter() - started
        return LoadResult(
            requests=total_requests,
            served=served,
            rejected=rejected,
            degraded=degraded,
            wall_seconds=wall,
            answers=answers,
        )
