"""The typed fault taxonomy a :class:`~repro.storage.disk.SimulatedDisk`
raises when its :class:`~repro.faults.FaultPlan` schedules a fault.

Every injected failure is a :class:`DiskFault` subtype carrying the
operation kind and index it fired on, so tests can assert *which*
scheduled fault a code path hit, and the retry machinery can decide
whether another attempt can help:

* **transient** faults (:class:`TransientReadError`,
  :class:`TransientWriteError`) model the disk momentarily misbehaving
  — a timeout, a bus reset, a loose SATA cable.  A retry re-draws from
  the fault plan at a fresh operation index, so under any rate < 1 a
  retry loop terminates with probability 1.
* **persistent** faults (:class:`CorruptedBlockError`) model damage
  that retrying the same I/O cannot fix; callers must isolate the
  failure (degrade the query, surface a typed error) instead of
  spinning.
"""

from __future__ import annotations


class DiskFault(RuntimeError):
    """An injected disk failure.

    Parameters
    ----------
    op:
        The operation kind the fault fired on (``"read"``/``"write"``).
    index:
        The disk-global operation index (see
        :attr:`~repro.storage.disk.SimulatedDisk.operations`).
    """

    #: whether retrying the failed operation can succeed.
    transient: bool = False
    #: the :class:`~repro.storage.disk.SimulatedDisk` that fired it: its
    #: transcript lists every fault that device fired, this one last.
    disk = None

    def __init__(self, op: str, index: int) -> None:
        super().__init__(
            f"injected {self.__class__.__name__} on {op} op #{index}"
        )
        self.op = op
        self.index = index


class TransientReadError(DiskFault):
    """A read that failed this once; a retry may succeed."""

    transient = True


class TransientWriteError(DiskFault):
    """A write that failed this once; a retry may succeed."""

    transient = True


class CorruptedBlockError(DiskFault):
    """A read that returned damaged data; retrying cannot help."""

    transient = False
