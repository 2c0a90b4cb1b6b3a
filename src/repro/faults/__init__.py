"""Fault injection: reproducible disk-failure schedules and retries.

The engine is meant to run continuously next to a warehouse; the disk
*will* misbehave while it does.  This package gives the reproduction a
failure model it can test against:

* :class:`FaultPlan` — a deterministic, seeded schedule of transient
  read/write errors, corrupted blocks and write stalls; every decision
  is a pure function of ``(seed, operation index)``, so any scenario
  replays exactly from one integer.
* :class:`FaultyDisk` — a drop-in
  :class:`~repro.storage.disk.SimulatedDisk` that raises typed
  :class:`DiskFault` errors per the plan and records a transcript of
  every fault fired (the CI artifact on harness failures).  Under the
  null plan it is bit-identical to the plain disk.
* :class:`RetryPolicy` — capped exponential backoff shared by the
  background archiver and the query executor.

The consumers live elsewhere: :mod:`repro.ingest` retries transient
faults and survives failed batches; :mod:`repro.query` retries probes
and lets the engine degrade an accurate query to the quick response;
:mod:`repro.persistence` keeps checkpoints crash-consistent so the
state a fault interrupts is always recoverable.
"""

from .disk import FaultyDisk
from .health import ReliabilityReport
from .errors import (
    CorruptedBlockError,
    DiskFault,
    TransientReadError,
    TransientWriteError,
)
from .plan import FaultEvent, FaultPlan
from .retry import RetryPolicy

__all__ = [
    "CorruptedBlockError",
    "DiskFault",
    "FaultEvent",
    "FaultPlan",
    "FaultyDisk",
    "ReliabilityReport",
    "RetryPolicy",
    "TransientReadError",
    "TransientWriteError",
]
