"""Query execution layer: planning and probing.

The accurate response's disk work decomposes into independent
per-partition searches.  This package separates *what* to probe
(:class:`QueryPlanner`, producing per-partition task objects) from
*running* the probes (:class:`QueryExecutor`, inline on the query's
thread under the retry policy).  See docs/ARCHITECTURE.md for where
this sits in the query path.
"""

from .executor import SERIAL_EXECUTOR, QueryExecutor
from .planner import QueryPlanner, RankProbeTask

__all__ = [
    "QueryExecutor",
    "QueryPlanner",
    "RankProbeTask",
    "SERIAL_EXECUTOR",
]
