"""The probe executor for the accurate query path.

Runs the per-partition tasks built by the accurate search
(:class:`~repro.core.filters.AccurateSearch`) inline on the query's own
thread, each under the transient-fault retry policy.

Section 4's parallel partition reads are *modeled*, not threaded:
``QueryResult.parallel_sim_seconds`` is the deepest single-partition
chain of charged blocks, the critical path that overlapped reads would
leave.  No backend here has a read latency to overlap (the simulated
disk is in memory, the object tier's GET latency is modeled), so a
thread pool could only add hand-offs under the GIL: an 8-worker pool
ran the same accurate queries at 0.41–0.75x the inline speed on the
simulated, mmap and object backends at κ 3 / 10 / 20 (2-core Xeon,
CPython 3.11), while the modeled speedup is 3.1–4.1x (EXPERIMENTS.md,
A4).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..faults.errors import DiskFault
from ..faults.retry import RetryPolicy
from ..stats import StatsTable
from ..storage.cache import BlockCache


class QueryExecutor:
    """Executes per-partition probe tasks for one engine.

    Parameters
    ----------
    retry:
        Transient-fault retry policy applied to each task
        individually; defaults to no retries.  Engines and clusters
        pass :data:`~repro.faults.retry.PROBE_RETRY_POLICY`.
        A probe that exhausts its retries raises the fault to the
        caller — the engine then degrades the query to the quick
        response instead of crashing it.
    table:
        Where a retry counts (``faults.probe_retries``) if the fault
        names no disk; else it counts in the faulting disk's backend's
        table (the engine's; for a cluster's probes, the shard's).

    A *task* is any object with a ``run(cache)`` method — see
    :mod:`repro.core.filters` for the two task shapes the accurate
    search builds.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        table: Optional[StatsTable] = None,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.table = table if table is not None else StatsTable()
        self.table.declare(["faults.probe_retries"])

    def _note_retry(self, fault: DiskFault, attempt: int) -> None:
        table = self.table if fault.disk is None else fault.disk.backend.table
        key = "faults.probe_retries"
        with table.lock:  # concurrent serving clients share an executor
            table[key] = table.get(key, 0) + 1

    def call_with_retry(self, fn: Any) -> Any:
        """Run a zero-argument callable under this executor's retry
        policy, counting any retries as ``faults.probe_retries``.

        Used by the engine for disk work on the query path that is not
        a probe task (e.g. staging a pending batch a query needs).
        """
        return self.retry.call(fn, on_retry=self._note_retry)

    def run_tasks(self, tasks: Sequence[Any], cache: BlockCache) -> List[Any]:
        """Run every task inline and return their results in task order.

        Each task runs under the executor's retry policy; a task's
        exception (including a probe's exhausted transient fault)
        propagates to the caller unchanged.
        """
        call, note = self.retry.call, self._note_retry
        return [call(task.run, note, cache) for task in tasks]


#: Shared executor used wherever no engine-owned executor is supplied
#: (standalone AccurateSearch construction, snapshots).
SERIAL_EXECUTOR = QueryExecutor()
