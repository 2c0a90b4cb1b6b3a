"""Concurrent query serving over the hybrid engine.

The paper's quick/accurate split exists so a warehouse can answer
quantile queries *while* batches keep arriving; this package makes
that concurrent in practice.  :class:`QueryService` accepts requests
from many client threads, batches quick-path requests pinned at the
same epoch into one TS merge (:mod:`~repro.serving.coalescer`), bounds
its queues with typed :class:`Overloaded` rejection
(:mod:`~repro.serving.admission`), and measures itself with the
repo's own GK sketches (:mod:`~repro.serving.metrics`).
:class:`LoadGenerator` drives it closed- or open-loop for the A8
ablation (:mod:`~repro.serving.bench`).
"""

from ..core.config import ServingConfig
from .admission import Overloaded
from .bench import build_bench_engine, run_serving_bench
from .loadgen import LoadGenerator, LoadResult
from .metrics import LatencySummary, MetricsSnapshot, ServiceMetrics
from .service import PendingQuery, QueryService

__all__ = [
    "LatencySummary",
    "LoadGenerator",
    "LoadResult",
    "MetricsSnapshot",
    "Overloaded",
    "PendingQuery",
    "QueryService",
    "ServiceMetrics",
    "ServingConfig",
    "build_bench_engine",
    "run_serving_bench",
]
