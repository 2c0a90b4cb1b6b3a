"""Crash-safety tests for the file-backed storage backends.

The fsutil crash hook freezes an atomic write at a named point —
kill-after-write (a ``.tmp`` holding the new content, final name
untouched) or kill-before-rename (the ``.tmp`` fsynced but never
renamed) — and the tests prove the recovery contract: previously
committed runs survive untouched, and :meth:`MmapFileBackend.fsck`
(which every backend start runs) removes exactly the staging orphans.

Crash points are chosen by a seeded :class:`~repro.faults.FaultPlan`,
the same deterministic schedule machinery the rest of the fault suite
uses, so each scenario replays identically from its seed.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.storage import MmapFileBackend, ObjectStoreBackend
from repro.storage import fsutil
from repro.storage.fsutil import (
    STAGE_SUFFIX,
    WRITE_CRASH_POINTS,
    SimulatedCrash,
    atomic_copy_file,
    atomic_write_bytes,
)


class CrashAt:
    """Hook that dies the first time the write reaches ``point``."""

    def __init__(self, point):
        assert point in WRITE_CRASH_POINTS
        self.point = point
        self.fired = False

    def __call__(self, point):
        if point == self.point and not self.fired:
            self.fired = True
            raise SimulatedCrash(point)


@pytest.fixture(autouse=True)
def _clean_hook():
    yield
    fsutil.crash_hook = None


def crash_point_for(plan: FaultPlan, index: int) -> str:
    """Map one seeded plan draw to a crash point (reproducible choice)."""
    draw = plan._draw(index)
    return WRITE_CRASH_POINTS[int(draw * len(WRITE_CRASH_POINTS))]


class TestAtomicWrite:
    def test_kill_after_write_preserves_old_content(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"old")
        fsutil.crash_hook = CrashAt("tmp-written")
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(target, b"new")
        fsutil.crash_hook = None
        assert target.read_bytes() == b"old"
        assert (tmp_path / ("blob" + STAGE_SUFFIX)).exists()

    def test_kill_before_rename_preserves_old_content(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"old")
        fsutil.crash_hook = CrashAt("tmp-synced")
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(target, b"new")
        fsutil.crash_hook = None
        assert target.read_bytes() == b"old"

    def test_kill_after_rename_commits_new_content(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"old")
        fsutil.crash_hook = CrashAt("renamed")
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(target, b"new")
        fsutil.crash_hook = None
        # The rename is the commit point: content flipped atomically.
        assert target.read_bytes() == b"new"
        assert not (tmp_path / ("blob" + STAGE_SUFFIX)).exists()

    def test_remove_stale_stages_reports_removals(self, tmp_path):
        target = tmp_path / "blob"
        fsutil.crash_hook = CrashAt("tmp-written")
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(target, b"data")
        fsutil.crash_hook = None
        removed = fsutil.remove_stale_stages(tmp_path)
        assert [p.name for p in removed] == ["blob" + STAGE_SUFFIX]
        assert not list(tmp_path.iterdir())


class TestStreamedWrites:
    """The run-sized writes stream into the stage; same crash points."""

    @pytest.mark.parametrize("point", WRITE_CRASH_POINTS)
    def test_copy_is_atomic_at_every_point(self, tmp_path, point):
        source = tmp_path / "source"
        payload = bytes(range(256)) * (3 * fsutil.COPY_CHUNK_BYTES // 256 + 7)
        source.write_bytes(payload)
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"old")
        fsutil.crash_hook = CrashAt(point)
        with pytest.raises(SimulatedCrash):
            atomic_copy_file(source, target)
        fsutil.crash_hook = None
        assert target.read_bytes() == (payload if point == "renamed" else b"old")
        assert atomic_copy_file(source, target).read_bytes() == payload

    def test_run_file_is_what_np_save_writes(self, tmp_path):
        data = np.arange(-500, 4500, dtype=np.int64)
        backend = MmapFileBackend(tmp_path / "runs")
        backend.allocate_run(3, data)
        np.save(tmp_path / "expected.npy", data, allow_pickle=False)
        assert (tmp_path / "runs" / "run-3.npy").read_bytes() == (
            tmp_path / "expected.npy"
        ).read_bytes()
        backend.close()


class TestMmapBackendCrash:
    @pytest.mark.parametrize("point", ["tmp-written", "tmp-synced"])
    def test_pre_commit_crash_loses_only_inflight_run(self, tmp_path, point):
        committed = np.arange(32, dtype=np.int64)
        backend = MmapFileBackend(tmp_path / "runs")
        backend.allocate_run(1, committed)
        fsutil.crash_hook = CrashAt(point)
        with pytest.raises(SimulatedCrash):
            backend.allocate_run(2, np.arange(64, dtype=np.int64))
        fsutil.crash_hook = None
        backend.close()

        # "Reboot": a fresh backend over the same directory fscks away
        # the orphaned stage and still serves the committed run.
        recovered = MmapFileBackend(tmp_path / "runs")
        assert not list((tmp_path / "runs").glob(f"*{STAGE_SUFFIX}"))
        data = np.load(tmp_path / "runs" / "run-1.npy")
        np.testing.assert_array_equal(data, committed)
        assert not (tmp_path / "runs" / "run-2.npy").exists()
        recovered.close()

    def test_post_rename_crash_commits_the_run(self, tmp_path):
        backend = MmapFileBackend(tmp_path / "runs")
        fsutil.crash_hook = CrashAt("renamed")
        with pytest.raises(SimulatedCrash):
            backend.allocate_run(5, np.arange(16, dtype=np.int64))
        fsutil.crash_hook = None
        backend.close()
        recovered = MmapFileBackend(tmp_path / "runs")
        np.testing.assert_array_equal(
            np.load(tmp_path / "runs" / "run-5.npy"),
            np.arange(16, dtype=np.int64),
        )
        recovered.close()

    def test_fsck_matches_manual_recovery(self, tmp_path):
        """fsck removes exactly the stage files a manual sweep finds."""
        directory = tmp_path / "runs"
        backend = MmapFileBackend(directory)
        backend.allocate_run(1, np.arange(8, dtype=np.int64))
        fsutil.crash_hook = CrashAt("tmp-written")
        with pytest.raises(SimulatedCrash):
            backend.allocate_run(2, np.arange(8, dtype=np.int64))
        fsutil.crash_hook = None
        expected = sorted(p.name for p in directory.glob(f"*{STAGE_SUFFIX}"))
        assert expected  # the crash left an orphan to find
        removed = backend.fsck()
        assert sorted(p.name for p in removed) == expected
        assert backend.fsck() == []  # idempotent
        backend.close()


class TestObjectBackendCrash:
    def test_migration_crash_keeps_run_hot(self, tmp_path):
        data = np.arange(24, dtype=np.int64)
        backend = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        handle = backend.allocate_run(1, data)
        fsutil.crash_hook = CrashAt("tmp-synced")
        with pytest.raises(SimulatedCrash):
            backend.place_run(1, level=1)
        fsutil.crash_hook = None
        # The PUT never committed: the run is still hot and readable,
        # and no phantom object landed in the bucket.
        assert backend.stats().object_runs == 0
        np.testing.assert_array_equal(np.asarray(handle.data), data)
        backend.close()

        recovered = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        assert recovered.stats().object_runs == 0
        assert not list(
            (tmp_path / "o" / "objects").glob(f"*{STAGE_SUFFIX}")
        )
        recovered.place_run(1, level=1)  # retry completes the migration
        assert recovered.stats().object_runs == 1
        recovered.close()

    def test_migration_crash_after_put_leaves_dual_copy_fsck_repairs(
        self, tmp_path
    ):
        """Crash between the bucket PUT and the hot unlink.

        The rename committed the PUT, so the run exists in BOTH tiers.
        fsck must keep exactly one authoritative copy — the bucket one
        (the migration had committed) — and report the repair.
        """
        data = np.arange(24, dtype=np.int64)
        backend = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        backend.allocate_run(1, data)
        fsutil.crash_hook = CrashAt("renamed")
        with pytest.raises(SimulatedCrash):
            backend.place_run(1, level=1)
        fsutil.crash_hook = None
        backend.close()
        # The crash window left the run in both tiers.
        assert (tmp_path / "o" / "hot" / "run-1.npy").exists()
        assert (tmp_path / "o" / "objects" / "run-1.npy").exists()

        recovered = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        assert not (tmp_path / "o" / "hot" / "run-1.npy").exists()
        assert (tmp_path / "o" / "objects" / "run-1.npy").exists()
        assert any("duplicate" in line for line in recovered.fsck_report)
        np.testing.assert_array_equal(
            np.load(tmp_path / "o" / "objects" / "run-1.npy"), data
        )
        assert recovered.fsck() == []  # idempotent
        recovered.close()


class TestPlannedCrashes:
    """FaultPlan-driven sweep: the crash point at each write is a pure
    function of (seed, write index), so every scenario replays."""

    def test_plan_chooses_deterministic_points(self):
        plan = FaultPlan(seed=42)
        points = [crash_point_for(plan, i) for i in range(10)]
        assert points == [crash_point_for(plan, i) for i in range(10)]
        assert set(points) <= set(WRITE_CRASH_POINTS)

    @pytest.mark.parametrize("seed", [7, 99, 1234])
    def test_seeded_crash_sweep_always_recovers(self, tmp_path, seed):
        plan = FaultPlan(seed=seed)
        directory = tmp_path / f"runs-{seed}"
        committed = {}
        for index in range(6):
            backend = MmapFileBackend(directory)
            data = np.arange(8 * (index + 1), dtype=np.int64)
            point = crash_point_for(plan, index)
            fsutil.crash_hook = CrashAt(point)
            try:
                backend.allocate_run(index, data)
                crashed = False
            except SimulatedCrash:
                crashed = True
            finally:
                fsutil.crash_hook = None
            # Everything up to the commit point is lost; everything
            # past it is durable — never a torn file either way.
            if not crashed or point == "renamed":
                committed[index] = data
            backend.close()

            recovered = MmapFileBackend(directory)
            assert not list(directory.glob(f"*{STAGE_SUFFIX}"))
            for run_id, expected in committed.items():
                np.testing.assert_array_equal(
                    np.load(directory / f"run-{run_id}.npy"), expected
                )
            recovered.close()
        assert committed  # at least the "renamed" crashes must commit
