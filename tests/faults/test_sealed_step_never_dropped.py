"""A sealed step is archived or stays pending — never neither.

Both ingest modes run one archive step (``BackgroundArchiver.
_archive_head``: stage, adopt, retry transient faults, keep the batch
pending across attempts); ``ingest_mode`` only chooses the thread.  So
one transient fault at *any* disk operation of the ingest — each stage
write, each read and the write of each cascade merge — must cost one
retry and nothing else, in both modes alike, and a fault that outlasts
the retries must leave the batch answered over and surface as the same
typed error at the same calls.
"""

import functools

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.faults import FaultPlan, FaultyDisk
from repro.faults.errors import CorruptedBlockError, TransientWriteError
from repro.faults.retry import ARCHIVE_RETRY_POLICY
from repro.ingest.archiver import ArchiveFailedError
from repro.sketches.exact import ExactQuantiles

pytestmark = [pytest.mark.faults, pytest.mark.usefixtures("no_backoff")]

STEPS, BATCH, KAPPA = 8, 500, 3  # two level-0 -> 1 cascades
PHIS = (0.01, 0.25, 0.5, 0.9, 0.999)
MODES = pytest.mark.parametrize("ingest_mode", ["sync", "background"])
#: a pin no run reaches: the plan is consulted (operations are counted)
#: and never fires.
NEVER = FaultPlan(fail_at={("write", 10**9)})


class RecordingDisk(FaultyDisk):
    """Notes the kind of every operation, by operation index."""

    def __init__(self, plan):
        super().__init__(plan, block_elems=64)
        self.kinds = []

    def _before_op(self, op):
        self.kinds.append(op)
        super()._before_op(op)


def batches(steps=STEPS, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 10**6, BATCH) for _ in range(steps + 1)]


def ingest(plan, ingest_mode, sketch_backend):
    """``STEPS`` sealed steps and a live tail over a disk under ``plan``."""
    engine = HybridQuantileEngine(
        config=EngineConfig(
            epsilon=0.02, kappa=KAPPA, block_elems=64,
            ingest_mode=ingest_mode, sketch_backend=sketch_backend,
        ),
        disk=RecordingDisk(plan),
    )
    *steps, live = batches()
    for values in steps:
        engine.stream_update_many(values)
        engine.end_time_step()
    engine.flush()
    engine.stream_update_many(live)
    return engine


def fingerprint(engine):
    """Partition bytes and every answer, as comparable values."""
    layout = [
        (p.level, p.start_step, p.end_step, p.run.values.tobytes())
        for p in engine.store.partitions()
    ]
    answers = [
        (r.value, r.estimated_rank, r.disk_accesses, r.degraded)
        for mode in ("quick", "accurate")
        for r in (engine.quantile(phi, mode=mode) for phi in PHIS)
    ]
    return layout, answers


@functools.lru_cache(maxsize=None)
def fault_free(ingest_mode, sketch_backend):
    with ingest(NEVER, ingest_mode, sketch_backend) as engine:
        return fingerprint(engine), tuple(engine.disk.kinds)


#: (kind, index) of every operation the fault-free ingest issues — the
#: same in both modes and for both sketches, which never touch the disk.
INGEST_OPS = list(enumerate(fault_free("sync", "gk")[1]))[
    : STEPS + 2 * (KAPPA + 1)
]


def test_the_sweep_covers_the_whole_ingest():
    kinds = [kind for _, kind in INGEST_OPS]
    # Eight stage writes; two merges of three reads and a write each.
    assert kinds.count("write") == STEPS + 2 and kinds.count("read") == 6
    for mode in ("sync", "background"):
        for sketch in ("gk", "kll"):
            ops = fault_free(mode, sketch)[1]
            assert list(enumerate(ops))[: len(INGEST_OPS)] == INGEST_OPS


@MODES
@pytest.mark.parametrize("sketch_backend", ["gk", "kll"])
@pytest.mark.parametrize(
    "index, kind", INGEST_OPS, ids=[f"{k}@{i}" for i, k in INGEST_OPS]
)
def test_one_transient_fault_costs_one_retry_and_nothing_else(
    index, kind, sketch_backend, ingest_mode
):
    plan = FaultPlan(fail_at={(kind, index)})
    with ingest(plan, ingest_mode, sketch_backend) as engine:
        assert engine.n_total == (STEPS + 1) * BATCH
        assert engine.disk.faults_fired == 1
        assert engine.reliability.archive_retries == 1
        expected, _ = fault_free(ingest_mode, sketch_backend)
        assert fingerprint(engine) == expected
        engine.check_invariants()


def fails_like(engine, ingest_mode, cause):
    """Seal a step whose archive fails for good: the error reaches the
    sealing call (sync) or the next drain (background)."""
    if ingest_mode == "background":
        assert not engine.end_time_step().archived
        failing = engine.flush
    else:
        failing = engine.end_time_step
    with pytest.raises(ArchiveFailedError) as caught:
        failing()
    assert isinstance(caught.value.__cause__, cause)


def stays_failed(engine):
    """What both modes do once the failure has been delivered."""
    for call in (engine.end_time_step, engine.flush):
        with pytest.raises(ArchiveFailedError):
            call()
    engine.close()  # delivered already: closes clean


@MODES
def test_exhausted_retries_keep_the_batch_answered_over(ingest_mode):
    first, live = batches(steps=1)
    config = EngineConfig(
        epsilon=0.02, kappa=KAPPA, block_elems=64, ingest_mode=ingest_mode,
    )
    retries = ARCHIVE_RETRY_POLICY.max_retries
    # The stage write faults on the first attempt and on every retry;
    # the budget then runs out, so the queries below can stage.
    plan = FaultPlan(write_error_rate=1.0, max_faults=retries + 1)
    engine = HybridQuantileEngine(
        config=config, disk=FaultyDisk(plan, block_elems=64)
    )
    twin = HybridQuantileEngine(config=config)
    for system in (engine, twin):
        system.stream_update_many(first)
    fails_like(engine, ingest_mode, TransientWriteError)
    twin.end_time_step()
    twin.flush()
    for system in (engine, twin):
        system.stream_update_many(live)
    assert engine.reliability.archive_retries == retries
    assert engine.steps_loaded == 0 and engine.n_total == 2 * BATCH
    # The pending batch is staged by the query that needs it.
    assert fingerprint(engine)[1] == fingerprint(twin)[1]
    assert engine.aggregate() == twin.aggregate()
    engine.check_invariants()
    stays_failed(engine)
    twin.close()


@MODES
def test_corruption_on_the_merge_read_is_not_retried(ingest_mode):
    *steps, live = batches(steps=KAPPA + 1)
    engine = HybridQuantileEngine(
        config=EngineConfig(
            epsilon=0.02, kappa=KAPPA, block_elems=64,
            ingest_mode=ingest_mode,
        ),
        # Staging only writes: the first read is the first merge's.
        disk=FaultyDisk(FaultPlan(corrupt_rate=1.0), block_elems=64),
    )
    oracle = ExactQuantiles()
    for values in steps[:KAPPA]:
        engine.stream_update_many(values)
        engine.end_time_step()
    engine.flush()
    engine.stream_update_many(steps[KAPPA])
    fails_like(engine, ingest_mode, CorruptedBlockError)
    # The merge died mid-phase; the sealing thread charges as before.
    assert engine.disk.stats.current_phase == "load"
    engine.stream_update_many(live)
    for values in (*steps, live):
        oracle.update_many(values)
    assert engine.reliability.archive_retries == 0
    assert engine.steps_loaded == KAPPA
    assert engine.n_total == oracle.n == (KAPPA + 2) * BATCH
    engine.disk.plan = FaultPlan()  # let the queries read
    stats = engine.aggregate()
    assert (stats.count, stats.minimum, stats.maximum) == (
        oracle.n, oracle.query_rank(1), oracle.query_rank(oracle.n)
    )
    for phi in PHIS:
        result = engine.quantile(phi)
        error = abs(oracle.rank(result.value) - result.target_rank)
        assert not result.degraded
        assert error <= result.rank_error_bound + 2
    engine.check_invariants()
    stays_failed(engine)
