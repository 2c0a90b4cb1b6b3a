"""Fault injection: reproducible disk-failure schedules and retries.

The engine is meant to run continuously next to a warehouse; the disk
*will* misbehave while it does.  This package gives the reproduction a
failure model it can test against:

* :class:`FaultPlan` — a deterministic, seeded schedule of transient
  read/write errors, corrupted blocks and write stalls; every decision
  is a pure function of ``(seed, operation index)``, so any scenario
  replays exactly from one integer.
* :class:`DiskFault` — the typed errors an engine's
  :class:`~repro.storage.disk.SimulatedDisk` raises per the plan it was
  built with (``fault_plan=``), each fired fault in its transcript.
* :class:`RetryPolicy` — capped exponential backoff shared by the
  background archiver and the query executor.

The consumers live elsewhere: :mod:`repro.ingest` retries transient
faults and survives failed batches; :mod:`repro.query` retries probes
and lets the engine degrade an accurate query to the quick response;
:mod:`repro.persistence` keeps checkpoints crash-consistent so the
state a fault interrupts is always recoverable.
"""

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
    "RetryPolicy",
    "TransientReadError",
    "TransientWriteError",
]
