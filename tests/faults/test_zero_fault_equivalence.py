"""A FaultyDisk under the null plan must change nothing.

Acceptance bar for the fault subsystem: with fault injection disabled
(all rates zero), an engine on a :class:`FaultyDisk` is bit-identical
to an engine on a plain :class:`SimulatedDisk` — answers, I/O counters
(including the per-phase split), layout, invariants — across both
ingest modes.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.faults import FaultPlan, FaultyDisk
from repro.storage import SimulatedDisk


def drive(disk, ingest_mode, steps=10, batch=400, seed=7):
    config = EngineConfig(
        epsilon=0.01,
        kappa=3,
        block_elems=64,
        ingest_mode=ingest_mode,
    )
    engine = HybridQuantileEngine(config=config, disk=disk)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        engine.stream_update_many(rng.integers(0, 10**6, size=batch))
        engine.end_time_step()
    engine.flush()
    engine.stream_update_many(rng.integers(0, 10**6, size=50))
    return engine


def layout(engine):
    return [
        (p.level, p.start_step, p.end_step, len(p))
        for p in engine.store.partitions()
    ]


@pytest.mark.parametrize("ingest_mode", ["sync", "background"])
class TestNullPlanEngineEquivalence:
    def test_bit_identical_to_plain_disk(self, ingest_mode):
        plain = drive(SimulatedDisk(block_elems=64), ingest_mode)
        faulty = drive(
            FaultyDisk(FaultPlan(), block_elems=64), ingest_mode
        )
        try:
            for bucket in ("counters", "load", "sort", "merge", "query"):
                assert getattr(plain.disk.stats, bucket) == getattr(
                    faulty.disk.stats, bucket
                ), bucket
            assert layout(plain) == layout(faulty)
            for phi in (0.05, 0.5, 0.95):
                for mode in ("quick", "accurate"):
                    a = plain.quantile(phi, mode=mode)
                    b = faulty.quantile(phi, mode=mode)
                    assert a.value == b.value, (phi, mode)
                    assert a.disk_accesses == b.disk_accesses
                    assert not b.degraded
                    assert a.rank_error_bound == b.rank_error_bound
            plain.check_invariants()
            faulty.check_invariants()
            report = faulty.reliability
            assert report.healthy
            assert faulty.disk.operations == 0  # plan never consulted
        finally:
            plain.close()
            faulty.close()
