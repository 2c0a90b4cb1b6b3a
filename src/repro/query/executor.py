"""The parallel probe executor for the accurate query path.

Runs the per-partition tasks produced by
:class:`~repro.query.planner.QueryPlanner` either inline on the calling
thread (``workers=1``, the default — byte-for-byte the historical
serial code path) or fanned out over a shared
:class:`~concurrent.futures.ThreadPoolExecutor` (``workers>1``, the
Section 4 parallel-read optimization made real).

Design notes
------------

* **Determinism.**  Results are always returned in task (= partition)
  order, and each task is a self-contained search over one immutable
  sorted run, so serial and parallel execution produce identical
  answers.  Block accounting is identical too: concurrent tasks of one
  fan-out touch disjoint runs, and the :class:`~repro.storage.cache.
  BlockCache` / :class:`~repro.storage.stats.DiskStats` counters are
  atomic, so the charged (run, block) set matches a serial execution.
* **Laziness.**  The thread pool is created on first parallel use, so
  a serial engine never spawns a thread.  ``close()`` (or using the
  executor — and the engine that owns it — as a context manager) shuts
  the pool down; a closed executor transparently falls back to inline
  execution rather than failing.
* **GIL reality check.**  Probes on the *simulated* disk are pure
  in-memory binary searches, so realized speedup is bounded by Python's
  GIL and thread-handoff overhead and typically falls short of the
  modeled critical-path speedup (``parallel_sim_seconds``); against a
  device with real I/O latency the threads overlap actual waiting.
  The parallel-query ablation benchmark reports both numbers
  side-by-side.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, List, Optional, Sequence

from ..faults.errors import DiskFault
from ..faults.retry import RetryPolicy
from ..storage.cache import BlockCache


class QueryExecutor:
    """Executes per-partition probe tasks for one engine.

    Parameters
    ----------
    workers:
        Maximum concurrent partition probes.  ``1`` (default) executes
        every task inline on the calling thread.
    retry:
        Transient-fault retry policy applied to each task
        individually; defaults to no retries.  Engines and clusters
        pass :data:`~repro.faults.retry.PROBE_RETRY_POLICY`.
        A probe that exhausts its retries raises the fault to the
        caller — the engine then degrades the query to the quick
        response instead of crashing it.

    A *task* is any object with a ``run(cache)`` method — see
    :mod:`repro.query.planner` for the two task shapes the accurate
    search plans.
    """

    def __init__(
        self, workers: int = 1, retry: Optional[RetryPolicy] = None
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.retry = retry if retry is not None else RetryPolicy()
        #: probes retried after a transient fault (lifetime count).
        self.fault_retries = 0
        self._retry_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_guard = threading.Lock()
        self._closed = False

    @property
    def parallel(self) -> bool:
        """Whether this executor may fan tasks out over threads."""
        return self.workers > 1 and not self._closed

    @property
    def pool_started(self) -> bool:
        """Whether the backing thread pool has been created."""
        return self._pool is not None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_guard:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-query",
                )
            return self._pool

    def _note_retry(self, fault: DiskFault, attempt: int) -> None:
        with self._retry_lock:
            self.fault_retries += 1

    def call_with_retry(self, fn: Any) -> Any:
        """Run a zero-argument callable under this executor's retry
        policy, counting any retries against :attr:`fault_retries`.

        Used by the engine for disk work on the query path that is not
        a planner task (e.g. staging a pending batch a query needs).
        """
        return self.retry.call(fn, on_retry=self._note_retry)

    def run_tasks(
        self,
        tasks: Sequence[Any],
        cache: Optional[BlockCache] = None,
    ) -> List[Any]:
        """Run every task and return their results in task order.

        With one worker (or at most one task) this is exactly
        ``[task.run(cache) for task in tasks]`` — no pool, no threads.
        Each task runs under the executor's retry policy; worker
        exceptions (including a probe's exhausted transient fault)
        propagate to the caller unchanged.
        """
        call, note = self.retry.call, self._note_retry
        if not self.parallel or len(tasks) <= 1:
            return [call(task.run, note, cache) for task in tasks]
        pool = self._ensure_pool()
        return list(pool.map(lambda task: call(task.run, note, cache), tasks))

    def close(self) -> None:
        """Shut the thread pool down; further runs execute inline."""
        with self._pool_guard:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Shared inline executor used wherever no engine-owned executor is
#: supplied (standalone AccurateSearch construction, snapshots).
SERIAL_EXECUTOR = QueryExecutor(workers=1)
