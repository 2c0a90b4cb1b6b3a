"""A fault-injecting simulated disk.

:class:`FaultyDisk` is a drop-in :class:`~repro.storage.disk.
SimulatedDisk`: same block API, same I/O accounting, plus a
:class:`~repro.faults.FaultPlan` consulted before every operation.  A
scheduled fault raises the matching typed :class:`~repro.faults.
DiskFault` *before* any counter is charged — a failed transfer moved no
data, so when a retry later succeeds, the realized access counts equal
a fault-free execution of the same request sequence.  Under the null
plan (all rates zero) the disk never consults the RNG and behaves
bit-identically to its parent class.

An *operation* is one storage-layer request (one ``charge_*`` call),
not one block: the warehouse issues a handful of requests per batch, so
per-request rates map directly onto "how often does archiving a step
hit a fault".
Operation indices are assigned under a lock in arrival order; with
concurrent threads the assignment order follows the interleaving, which
is why the reproducible harnesses drive deterministic request sequences
(single scenario, fixed seeds) rather than relying on thread timing.

Every fault that fires is appended to :attr:`FaultyDisk.transcript`;
:meth:`dump_transcript` writes the plan plus the events as JSON — the
artifact CI uploads when a fault-injection run fails, so the exact
schedule that broke the build can be replayed locally.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import List, Optional

from ..storage.disk import SimulatedDisk
from ..storage.stats import DiskLatencyModel
from .errors import CorruptedBlockError, TransientReadError, TransientWriteError
from .plan import CORRUPT, STALL, TRANSIENT, FaultEvent, FaultPlan

_FAULT_FOR = {
    ("read", TRANSIENT): TransientReadError,
    ("read", CORRUPT): CorruptedBlockError,
    ("write", TRANSIENT): TransientWriteError,
}


class FaultyDisk(SimulatedDisk):
    """A :class:`SimulatedDisk` that fails on schedule.

    Parameters
    ----------
    plan:
        The fault schedule.  ``FaultPlan()`` (the null plan) makes this
        class behave exactly like its parent.
    block_elems, latency:
        Forwarded to :class:`SimulatedDisk`.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        block_elems: int = 4096,
        latency: Optional[DiskLatencyModel] = None,
    ) -> None:
        super().__init__(block_elems=block_elems, latency=latency)
        self.plan = plan if plan is not None else FaultPlan()
        self.transcript: List[FaultEvent] = []
        self._op_lock = threading.Lock()
        self._op_index = 0
        self._faults_fired = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def operations(self) -> int:
        """Number of operations issued so far (faulted ones included)."""
        with self._op_lock:
            return self._op_index

    @property
    def faults_fired(self) -> int:
        """Number of faults (stalls included) fired so far."""
        with self._op_lock:
            return self._faults_fired

    def dump_transcript(self, path: "str | Path") -> Path:
        """Write the plan and the fired faults as a JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "plan": json.loads(self.plan.to_json()),
            "operations": self.operations,
            "events": [event.as_dict() for event in self.transcript],
        }
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        return path

    # ------------------------------------------------------------------
    # The injection point
    # ------------------------------------------------------------------

    def _before_op(self, op: str) -> None:
        """Consult the plan for the next operation; raise or stall."""
        if self.plan.null:
            return
        with self._op_lock:
            index = self._op_index
            self._op_index += 1
            if (
                self.plan.max_faults is not None
                and self._faults_fired >= self.plan.max_faults
            ):
                return
            decision = self.plan.decide(op, index)
            if decision is None:
                return
            self._faults_fired += 1
            self.transcript.append(
                FaultEvent(index=index, op=op, fault=decision)
            )
        if decision == STALL:
            if self.plan.stall_seconds > 0.0:
                time.sleep(self.plan.stall_seconds)
            return
        raise _FAULT_FOR[(op, decision)](op, index)

    # ------------------------------------------------------------------
    # Faulting overrides (charge only after the fault gate passes)
    # ------------------------------------------------------------------

    def charge_sequential_read(self, num_elems: int) -> None:
        self._before_op("read")
        super().charge_sequential_read(num_elems)

    def charge_sequential_write(self, num_elems: int) -> None:
        self._before_op("write")
        super().charge_sequential_write(num_elems)

    def charge_random_read(self, blocks: int = 1) -> None:
        self._before_op("read")
        super().charge_random_read(blocks)
