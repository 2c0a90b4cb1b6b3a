"""Query execution layer: planning and (optionally parallel) probing.

The accurate response's disk work decomposes into independent
per-partition searches.  This package separates *what* to probe
(:class:`QueryPlanner`, producing per-partition task objects) from
*how* to run the probes (:class:`QueryExecutor`, inline or on a thread
pool sized by ``EngineConfig.query_workers``).  See
docs/ARCHITECTURE.md for where this sits in the query path and where
the thread-safety boundaries are.
"""

from .executor import SERIAL_EXECUTOR, QueryExecutor
from .planner import QueryPlanner, RankProbeTask

__all__ = [
    "QueryExecutor",
    "QueryPlanner",
    "RankProbeTask",
    "SERIAL_EXECUTOR",
]
