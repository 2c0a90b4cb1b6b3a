"""Unit tests for the query executor itself."""

from __future__ import annotations

import threading

import pytest

from repro.faults import RetryPolicy, TransientReadError
from repro.query import QueryExecutor


class _Task:
    """Records which thread ran it and returns a canned result; raises
    each exception in ``faults`` on its first runs."""

    def __init__(self, result, faults=()):
        self.result = result
        self.faults = list(faults)
        self.thread = None
        self.runs = 0

    def run(self, cache):
        self.thread = threading.current_thread()
        self.runs += 1
        if self.faults:
            raise self.faults.pop(0)
        if isinstance(self.result, Exception):
            raise self.result
        return self.result


class TestSerialExecutor:
    def test_runs_inline_without_pool(self):
        executor = QueryExecutor()
        tasks = [_Task(i * i) for i in range(20)]
        assert executor.run_tasks(tasks, None) == [i * i for i in range(20)]
        main = threading.current_thread()
        assert all(task.thread is main for task in tasks)

    def test_task_exception_propagates(self):
        tasks = [_Task(1), _Task(RuntimeError("boom")), _Task(3)]
        with pytest.raises(RuntimeError, match="boom"):
            QueryExecutor().run_tasks(tasks, None)
        # Tasks run in order: nothing after the failing one ran.
        assert [task.runs for task in tasks] == [1, 1, 0]

    def test_transient_faults_are_retried_and_counted(self):
        executor = QueryExecutor(retry=RetryPolicy(max_retries=2))
        flaky = _Task("ok", faults=[TransientReadError("read", 0)])
        assert executor.run_tasks([_Task(0), flaky], None) == [0, "ok"]
        assert flaky.runs == 2
        assert executor.fault_retries == 1
        # Past the budget the fault reaches the caller, every retry counted.
        doomed = _Task(
            "never", faults=[TransientReadError("read", i) for i in range(3)]
        )
        with pytest.raises(TransientReadError):
            executor.run_tasks([doomed], None)
        assert doomed.runs == 3
        assert executor.fault_retries == 3
        assert executor.call_with_retry(lambda: "direct") == "direct"


class TestParallelExecutor:
    """Per-partition tasks are independent; the executor hands their
    results back in task order however they were run."""

    def test_preserves_task_order(self):
        executor = QueryExecutor(retry=RetryPolicy(max_retries=1))
        tasks = [_Task(i * i) for i in range(20)]
        # A retried task keeps its slot.
        tasks[7] = _Task(49, faults=[TransientReadError("read", 7)])
        assert executor.run_tasks(tasks, None) == [i * i for i in range(20)]
        assert tasks[7].runs == 2
