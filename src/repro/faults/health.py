"""Engine-level reliability accounting.

One frozen :class:`ReliabilityReport` gathers every failure-isolation
counter the engine maintains — injected faults observed, retries spent
by the archiver and the query executor, queries that degraded to the
quick response — so an operator (``engine.reliability``, the CLI's
``reliability:`` line) reads degradation from a single snapshot instead
of poking at three subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReliabilityReport:
    """Cumulative failure-handling counters of one engine.

    Attributes
    ----------
    disk_faults:
        Faults the engine's disk has fired (0 for a fault-free
        :class:`~repro.storage.disk.SimulatedDisk`).
    archive_retries:
        Archive attempts the background archiver retried after a
        transient fault.
    probe_retries:
        Partition probes the query executor retried after a transient
        fault.
    degraded_queries:
        Accurate queries that fell back to the quick response after
        exhausting probe retries.
    """

    disk_faults: int = 0
    archive_retries: int = 0
    probe_retries: int = 0
    degraded_queries: int = 0

    @property
    def total_retries(self) -> int:
        """Retries spent across all subsystems."""
        return self.archive_retries + self.probe_retries

    @property
    def healthy(self) -> bool:
        """Whether the engine has never had to absorb a failure."""
        return (
            self.disk_faults == 0
            and self.total_retries == 0
            and self.degraded_queries == 0
        )
