"""repro: quantiles over the union of historical and streaming data.

A faithful, laptop-scale reproduction of Singh, Srivastava &
Tirthapura, "Estimating Quantiles from the Union of Historical and
Streaming Data" (PVLDB 10(4), 2016).

Quickstart::

    from repro import HybridQuantileEngine

    engine = HybridQuantileEngine(epsilon=1e-3, kappa=10)
    engine.stream_update_many(todays_values)    # live stream (the one
                                                # batch verb, on every
                                                # engine and baseline)
    median = engine.quantile(0.5)               # query any time
    engine.end_time_step()                      # archive the batch

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for the paper-versus-measured record.
"""

from .baselines import PureStreamingEngine, StrawmanEngine
from .cluster import (
    ClusterEngine,
    ClusterSnapshot,
    ShardRouter,
    load_cluster,
    save_cluster,
)
from .frequent import HeavyHittersEngine, MisraGriesSketch
from .core import (
    EngineConfig,
    HybridQuantileEngine,
    MemoryBudget,
    MemoryReport,
    QuantileWatcher,
    QueryResult,
    ServingConfig,
    SnapshotHandle,
    StepReport,
    WindowNotAlignedError,
    epsilon_for_budget,
)
from .faults import (
    CorruptedBlockError,
    DiskFault,
    FaultPlan,
    FaultyDisk,
    ReliabilityReport,
    RetryPolicy,
    TransientReadError,
    TransientWriteError,
)
from .query import QueryExecutor, QueryPlanner
from .serving import (
    LoadGenerator,
    MetricsSnapshot,
    Overloaded,
    QueryService,
    ServiceMetrics,
)
from .sketches import (
    ExactQuantiles,
    GKSketch,
    KLLSketch,
    QDigestSketch,
)
from .storage import SimulatedDisk
from .workloads import (
    NetworkTraceWorkload,
    NormalWorkload,
    UniformWorkload,
    WikipediaWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "PureStreamingEngine",
    "StrawmanEngine",
    "ClusterEngine",
    "ClusterSnapshot",
    "ShardRouter",
    "load_cluster",
    "save_cluster",
    "HeavyHittersEngine",
    "MisraGriesSketch",
    "EngineConfig",
    "QuantileWatcher",
    "HybridQuantileEngine",
    "MemoryBudget",
    "MemoryReport",
    "QueryResult",
    "StepReport",
    "WindowNotAlignedError",
    "epsilon_for_budget",
    "CorruptedBlockError",
    "DiskFault",
    "FaultPlan",
    "FaultyDisk",
    "ReliabilityReport",
    "RetryPolicy",
    "TransientReadError",
    "TransientWriteError",
    "QueryExecutor",
    "QueryPlanner",
    "LoadGenerator",
    "MetricsSnapshot",
    "Overloaded",
    "QueryService",
    "ServiceMetrics",
    "ServingConfig",
    "SnapshotHandle",
    "ExactQuantiles",
    "GKSketch",
    "KLLSketch",
    "QDigestSketch",
    "SimulatedDisk",
    "NetworkTraceWorkload",
    "NormalWorkload",
    "UniformWorkload",
    "WikipediaWorkload",
    "__version__",
]
