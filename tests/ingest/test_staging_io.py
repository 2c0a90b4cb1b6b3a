"""A query that stages a pending batch charges it as the archiver would.

Queries do not set an I/O phase.  Nothing they charge reads one:
staging a pending batch runs its sort and its write under ``"sort"``
and ``"load"`` itself, and a random read is always booked to
``"query"``.  So a caller left in ``"merge"`` must see every door
stage the pending batch with no sequential charge in ``"query"``,
random reads equal to the blocks its answers charged, per-phase
counters equal to the step reports' sums, the same reports as a
sync-mode twin, and its own phase untouched.
"""

import numpy as np
import pytest

from repro import EngineConfig, HybridQuantileEngine

PHIS = (0.1, 0.5, 0.9)


def feed():
    rng = np.random.default_rng(11)
    return [rng.integers(0, 10**6, 400 + 50 * i) for i in range(5)]


def build(ingest_mode):
    return HybridQuantileEngine(
        config=EngineConfig(
            epsilon=0.02, kappa=3, block_elems=16, ingest_mode=ingest_mode,
            shared_cache_blocks=64,
        )
    )


def paused_engine():
    """Steps 1-4 archived (one merge), step 5 sealed and left pending
    behind a paused archiver, plus a live tail; and the reports so far."""
    engine = build("background")
    *archived, pending = feed()
    for batch in archived:
        engine.stream_update_many(batch)
        engine.end_time_step()
    reports = engine.flush()
    engine._archiver.pause()
    engine.stream_update_many(pending)
    engine.end_time_step()
    engine.stream_update_many(np.arange(300))
    return engine, reports


def windowed_aggregate(engine):
    engine.aggregate(window_steps=2)
    return 0  # exact from write-time aggregates: no block is read


# Each door returns the blocks its answers charged.
DOORS = {
    "quick": lambda e: e.quantile(0.5, mode="quick").disk_accesses,
    "quick_window": lambda e: e.quantile(
        0.5, mode="quick", window_steps=2
    ).disk_accesses,
    "quick_step_range": lambda e: e.quantile(
        0.5, mode="quick", step_range=(4, 5)
    ).disk_accesses,
    "accurate": lambda e: e.quantile(0.5).disk_accesses,
    "quantile_many": lambda e: sum(
        r.disk_accesses for r in e.quantile_many(PHIS, mode="accurate")
    ),
    "warm_shared_cache": lambda e: e.warm_shared_cache(PHIS),
    "windowed_aggregate": windowed_aggregate,
}


def io_of(report):
    return (report.io_total, report.io_load, report.io_sort, report.io_merge)


@pytest.mark.parametrize("door", sorted(DOORS))
def test_a_door_staging_a_pending_batch_charges_it_as_archiving_would(door):
    engine, reports = paused_engine()
    stats = engine.disk.stats
    archiver = engine._archiver
    (batch,) = archiver.pending_batches()
    try:
        stats.set_phase("merge")
        charged = DOORS[door](engine)
        assert stats.current_phase == "merge"
        stats.set_phase("load")
        assert batch.staged
        assert stats.query.sequential == 0
        assert stats.query.random_reads == charged
        if door in ("accurate", "quantile_many", "warm_shared_cache"):
            assert charged > 0
        archiver.resume()
        reports += engine.flush()
        assert [r.step for r in reports] == [1, 2, 3, 4, 5]
        for phase in ("load", "sort", "merge"):
            key = f"io_{phase}"
            assert sum(getattr(r, key) for r in reports) == getattr(
                stats, phase
            ).total
    finally:
        engine.close()
    twin = build("sync")
    twin_reports = []
    for values in feed():
        twin.stream_update_many(values)
        twin_reports.append(twin.end_time_step())
    twin.close()
    assert [io_of(r) for r in reports] == [io_of(r) for r in twin_reports]
