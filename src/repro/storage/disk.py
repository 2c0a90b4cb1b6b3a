"""A simulated block device that fails on schedule.

The paper evaluates on a laptop hard disk with 100 KB blocks.  We cannot
(and, per the reproduction notes, should not try to) reproduce physical
disk timings; what the paper's lemmas and figures actually measure is
*block-granular access counts*.  :class:`SimulatedDisk` therefore stores
data through a backend but forces every access through a block API that
charges the owning :class:`~repro.storage.stats.DiskStats` — atomically,
as queries and the archiver charge it from several threads at once.
One disk backs one engine, so an experiment reads a single tally for,
e.g., "disk accesses per time step" (Fig. 7) or "per query" (Fig. 9).

A non-null :class:`~repro.faults.FaultPlan` is consulted before every
operation (one ``charge_*`` call, indexed in arrival order); a scheduled
fault raises its typed :class:`~repro.faults.DiskFault` *before* any
counter is charged, so a retry that succeeds leaves the counts of a
fault-free run.  Fired faults land in :attr:`SimulatedDisk.transcript`
(``dump_transcript``: the CI artifact of a failing fault run).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from ..faults.errors import (
    CorruptedBlockError,
    TransientReadError,
    TransientWriteError,
)
from ..faults.plan import CORRUPT, STALL, TRANSIENT, FaultEvent, FaultPlan
from .backends import SimulatedBackend
from .stats import DiskLatencyModel, DiskStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backends import BlockDevice

_FAULT_FOR = {
    ("read", TRANSIENT): TransientReadError,
    ("read", CORRUPT): CorruptedBlockError,
    ("write", TRANSIENT): TransientWriteError,
}


class SimulatedDisk:
    """Block-granular storage with I/O accounting and scheduled faults.

    Parameters
    ----------
    block_elems:
        Number of data elements per disk block.  The paper uses 100 KB
        blocks with 8-byte values (12 800 elements); scaled-down
        experiments use proportionally smaller blocks so that the
        blocks-per-batch ratio matches the paper's.
    latency:
        Optional latency model used to convert access counts into
        simulated seconds.
    backend:
        Optional :class:`~repro.storage.backends.BlockDevice` that owns
        the payload bytes of every run allocated from this disk.
        Defaults to the in-memory
        :class:`~repro.storage.backends.SimulatedBackend`, which keeps
        historical behaviour bit-identical.  Backends never change what
        is *charged* — they add real bytes and request-level accounting
        (object GET/PUT) on top of the block counters.
    plan:
        The fault schedule; ``None`` is the null ``FaultPlan()``, which
        never fires.
    """

    def __init__(
        self,
        block_elems: int = 4096,
        latency: Optional[DiskLatencyModel] = None,
        backend: "Optional[BlockDevice]" = None,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        if block_elems < 1:
            raise ValueError("block_elems must be >= 1")
        self.block_elems = block_elems
        self.stats = DiskStats()
        self.latency = latency if latency is not None else DiskLatencyModel()
        self.backend: "BlockDevice" = (
            backend if backend is not None else SimulatedBackend()
        )
        self.plan = plan if plan is not None else FaultPlan()
        self.transcript: List[FaultEvent] = []
        self._op_lock = threading.Lock()
        self._op_index = 0
        self._faults_fired = 0
        self._degraded_queries = 0

    def blocks_for(self, num_elems: int) -> int:
        """Number of blocks occupied by ``num_elems`` elements."""
        if num_elems <= 0:
            return 0
        return -(-num_elems // self.block_elems)

    def block_of(self, index: int) -> int:
        """The block number holding the element at ``index``."""
        return index // self.block_elems

    def charge_sequential_read(self, num_elems: int) -> None:
        """Charge a sequential scan of ``num_elems`` elements."""
        if self._faulty:
            self._before_op("read")
        self.stats.record_sequential_read(self.blocks_for(num_elems))

    def charge_sequential_write(self, num_elems: int) -> None:
        """Charge a sequential write of ``num_elems`` elements."""
        if self._faulty:
            self._before_op("write")
        self.stats.record_sequential_write(self.blocks_for(num_elems))

    def charge_random_read(self, blocks: int = 1) -> None:
        """Charge ``blocks`` random block reads."""
        if self._faulty:
            self._before_op("read")
        self.stats.record_random_read(blocks)

    def simulated_seconds(self) -> float:
        """Total simulated time for all accesses so far.

        Block-model latency plus whatever request latency the storage
        backend accrued (e.g. object-store GET/PUT round trips).
        """
        return self.latency.seconds(self.stats.counters) + self.backend.simulated_seconds()

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    @property
    def plan(self) -> FaultPlan:
        """The fault schedule, swappable between operations."""
        return self._plan

    @plan.setter
    def plan(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._faulty = not plan.null

    @property
    def operations(self) -> int:
        """Operations the plan was consulted for (faulted ones included;
        0 under the null plan)."""
        with self._op_lock:
            return self._op_index

    @property
    def faults_fired(self) -> int:
        """Number of faults (stalls included) fired so far."""
        with self._op_lock:
            return self._faults_fired

    @property
    def degraded_queries(self) -> int:
        """Accurate queries a fault of this disk sent to the quick
        response."""
        with self._op_lock:
            return self._degraded_queries

    def note_degraded_query(self) -> None:
        """Count one degraded query (called from any query thread)."""
        with self._op_lock:
            self._degraded_queries += 1

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

    def _before_op(self, op: str) -> None:
        """Consult the plan for the next operation; raise or stall."""
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
        fault = _FAULT_FOR[(op, decision)](op, index)
        fault.disk = self
        raise fault
