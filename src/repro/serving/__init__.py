"""Concurrent query serving over the hybrid engine.

The paper's quick/accurate split exists so a warehouse can answer
quantile queries *while* batches keep arriving; this package makes
that concurrent in practice.  :class:`QueryService` accepts requests
from many client threads, batches quick-path requests onto one
unpinned TS read (:mod:`~repro.serving.coalescer`), bounds
its queues with typed :class:`Overloaded` rejection
(:mod:`~repro.serving.admission`), and measures itself with the
repo's own GK sketches (:mod:`~repro.serving.metrics`).
"""

from ..core.config import ServingConfig
from .admission import Overloaded
from .metrics import LatencySummary, MetricsSnapshot, ServiceMetrics
from .service import PendingQuery, QueryService

__all__ = [
    "LatencySummary",
    "MetricsSnapshot",
    "Overloaded",
    "PendingQuery",
    "QueryService",
    "ServiceMetrics",
    "ServingConfig",
]
