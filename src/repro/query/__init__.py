"""Query execution layer: running the accurate search's probes.

The accurate search (:mod:`repro.core.filters`) builds one task per
partition it is still reading; :class:`QueryExecutor` runs them inline
on the query's thread under the retry policy.  See
docs/ARCHITECTURE.md for where this sits in the query path.
"""

from .executor import SERIAL_EXECUTOR, QueryExecutor

__all__ = [
    "QueryExecutor",
    "SERIAL_EXECUTOR",
]
