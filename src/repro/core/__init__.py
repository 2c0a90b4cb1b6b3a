"""The paper's core contribution: the hybrid quantile engine."""

from .bounds import CombinedSummary
from .config import EngineConfig, ServingConfig
from .engine import HybridQuantileEngine, MemoryReport, StepReport
from .epoch import EpochRegistry, SnapshotHandle
from .query_path import QueryResult
from .memory import (
    WORDS_PER_MB,
    MemoryBudget,
    epsilon_for_budget,
    gk_tuple_estimate,
    historical_summary_words,
    stream_summary_words,
)
from .summaries import PartitionSummary, StreamSummary
from .windows import WindowNotAlignedError

__all__ = [
    "CombinedSummary",
    "EngineConfig",
    "EpochRegistry",
    "ServingConfig",
    "SnapshotHandle",
    "HybridQuantileEngine",
    "MemoryReport",
    "QueryResult",
    "StepReport",
    "WORDS_PER_MB",
    "MemoryBudget",
    "epsilon_for_budget",
    "gk_tuple_estimate",
    "historical_summary_words",
    "stream_summary_words",
    "PartitionSummary",
    "StreamSummary",
    "WindowNotAlignedError",
]
