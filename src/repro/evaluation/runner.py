"""Experiment runner: drives engines over workloads and collects metrics.

One :class:`ExperimentRunner` owns a workload and a set of engines (the
hybrid engine plus any baselines), feeds them identical data — ``T``
archived time steps followed by a live stream batch — and measures the
quantities the paper plots: per-step update cost, per-query disk
accesses and runtime, and oracle-measured relative error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.engine import StepReport
from ..sketches.exact import ExactQuantiles
from ..workloads.base import Workload
from .metrics import QueryAccuracy, measure

DEFAULT_PHIS = (0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


@dataclass
class EngineRun:
    """Everything measured for one engine over one experiment."""

    name: str
    step_reports: List[StepReport] = field(default_factory=list)
    queries: List[QueryAccuracy] = field(default_factory=list)
    ingest_seconds: float = 0.0

    @property
    def median_relative_error(self) -> float:
        """Median relative error across queries."""
        errors = sorted(q.relative_error for q in self.queries)
        if not errors:
            return float("nan")
        return errors[len(errors) // 2]

    @property
    def mean_relative_error(self) -> float:
        """Mean relative error across queries."""
        if not self.queries:
            return float("nan")
        return sum(q.relative_error for q in self.queries) / len(self.queries)

    @property
    def max_relative_error(self) -> float:
        """Worst relative error across queries."""
        if not self.queries:
            return float("nan")
        return max(q.relative_error for q in self.queries)

    @property
    def mean_update_io(self) -> float:
        """Average disk accesses per archived step."""
        if not self.step_reports:
            return 0.0
        return sum(r.io_total for r in self.step_reports) / len(self.step_reports)

    @property
    def mean_query_disk_accesses(self) -> float:
        """Average random block reads per query."""
        if not self.queries:
            return 0.0
        return sum(q.result.disk_accesses for q in self.queries) / len(self.queries)

    @property
    def mean_query_seconds(self) -> float:
        """Average wall + simulated seconds per query."""
        if not self.queries:
            return 0.0
        return sum(
            q.result.wall_seconds + q.result.sim_seconds for q in self.queries
        ) / len(self.queries)

    def update_io_per_step(self) -> List[int]:
        """Per-step disk-access totals, in step order."""
        return [r.io_total for r in self.step_reports]

    def mean_update_seconds(self) -> Dict[str, float]:
        """Average per-step update time by phase (CPU + simulated I/O)."""
        if not self.step_reports:
            return {}
        phases: Dict[str, float] = {"load": 0.0, "sort": 0.0,
                                    "merge": 0.0, "summary": 0.0}
        sim_total = 0.0
        for report in self.step_reports:
            for phase, seconds in report.cpu_seconds.items():
                phases[phase] = phases.get(phase, 0.0) + seconds
            sim_total += report.sim_seconds
        steps = len(self.step_reports)
        averaged = {phase: value / steps for phase, value in phases.items()}
        averaged["sim_io"] = sim_total / steps
        return averaged


@dataclass
class ExperimentResult:
    """Results for all engines of one experiment, keyed by engine name."""

    workload_name: str
    num_steps: int
    batch_elems: int
    stream_elems: int
    runs: Dict[str, EngineRun] = field(default_factory=dict)

    def __getitem__(self, name: str) -> EngineRun:
        return self.runs[name]


class ExperimentRunner:
    """Feed identical data to several engines and measure them.

    Parameters
    ----------
    workload:
        Batch generator (reset before the run for determinism).
    num_steps:
        Number of archived time steps T.
    batch_elems:
        Elements per archived batch.
    stream_elems:
        Size m of the live (unarchived) stream present at query time;
        defaults to ``batch_elems``.
    keep_oracle:
        Retain the exact oracle after the run (tests use it).
    """

    def __init__(
        self,
        workload: Workload,
        num_steps: int,
        batch_elems: int,
        stream_elems: Optional[int] = None,
        keep_oracle: bool = True,
    ) -> None:
        self.workload = workload
        self.num_steps = num_steps
        self.batch_elems = batch_elems
        self.stream_elems = (
            stream_elems if stream_elems is not None else batch_elems
        )
        self.keep_oracle = keep_oracle
        self.oracle: Optional[ExactQuantiles] = None

    def run(
        self,
        engines: Dict[str, object],
        phis: Sequence[float] = DEFAULT_PHIS,
        query_modes: Optional[Dict[str, str]] = None,
    ) -> ExperimentResult:
        """Drive every engine through the experiment.

        ``engines`` maps display names to engine objects implementing
        the driver protocol (``stream_update_many``, ``end_time_step``,
        ``quantile``).  ``query_modes`` optionally overrides the query
        mode per engine name (default ``"accurate"``).
        """
        self.workload.reset()
        oracle = ExactQuantiles()
        result = ExperimentResult(
            workload_name=self.workload.name,
            num_steps=self.num_steps,
            batch_elems=self.batch_elems,
            stream_elems=self.stream_elems,
            runs={name: EngineRun(name=name) for name in engines},
        )
        modes = query_modes or {}

        for batch in self.workload.batches(self.num_steps, self.batch_elems):
            oracle.update_many(batch)
            for name, engine in engines.items():
                run = result.runs[name]
                started = time.perf_counter()
                engine.stream_update_many(batch)
                report = engine.end_time_step()
                run.ingest_seconds += time.perf_counter() - started
                run.step_reports.append(report)

        live = self.workload.generate(self.stream_elems)
        oracle.update_many(live)
        for name, engine in engines.items():
            run = result.runs[name]
            started = time.perf_counter()
            engine.stream_update_many(live)
            run.ingest_seconds += time.perf_counter() - started

        for phi in phis:
            for name, engine in engines.items():
                mode = modes.get(name, "accurate")
                query = engine.quantile(phi, mode=mode)
                result.runs[name].queries.append(measure(query, oracle))

        if self.keep_oracle:
            self.oracle = oracle
        return result
