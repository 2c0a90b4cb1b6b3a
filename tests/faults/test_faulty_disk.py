"""Tests for the fault-injecting disk wrapper."""

import json

import pytest

from repro.faults import (
    CorruptedBlockError,
    FaultPlan,
    FaultyDisk,
    TransientReadError,
    TransientWriteError,
)
from repro.storage import SimulatedDisk


class TestFaultRaising:
    def test_pinned_read_fault(self):
        disk = FaultyDisk(FaultPlan(fail_at={("read", 0)}), block_elems=16)
        with pytest.raises(TransientReadError) as excinfo:
            disk.charge_random_read(1)
        assert excinfo.value.transient
        assert excinfo.value.op == "read"
        assert excinfo.value.index == 0

    def test_pinned_write_fault(self):
        disk = FaultyDisk(FaultPlan(fail_at={("write", 0)}), block_elems=16)
        with pytest.raises(TransientWriteError):
            disk.charge_sequential_write(10)

    def test_corruption_is_persistent(self):
        disk = FaultyDisk(FaultPlan(corrupt_rate=1.0), block_elems=16)
        with pytest.raises(CorruptedBlockError) as excinfo:
            disk.charge_sequential_read(10)
        assert not excinfo.value.transient

    def test_faulted_op_charges_nothing(self):
        disk = FaultyDisk(FaultPlan(read_error_rate=1.0), block_elems=16)
        with pytest.raises(TransientReadError):
            disk.charge_random_read(1)
        assert disk.stats.counters.random_reads == 0
        assert disk.stats.counters.sequential_reads == 0

    def test_max_faults_caps_the_burst(self):
        disk = FaultyDisk(
            FaultPlan(read_error_rate=1.0, max_faults=2), block_elems=16
        )
        for _ in range(2):
            with pytest.raises(TransientReadError):
                disk.charge_random_read(1)
        disk.charge_random_read(1)  # budget exhausted: op succeeds
        assert disk.faults_fired == 2
        assert disk.stats.counters.random_reads == 1

    def test_stall_succeeds(self):
        disk = FaultyDisk(
            FaultPlan(stall_rate=1.0, stall_seconds=0.0), block_elems=16
        )
        disk.charge_sequential_write(10)
        assert disk.stats.counters.sequential_writes > 0
        assert disk.faults_fired == 1


class TestTranscript:
    def test_events_recorded_and_dumped(self, tmp_path):
        disk = FaultyDisk(
            FaultPlan(seed=2, read_error_rate=1.0, max_faults=3),
            block_elems=16,
        )
        for _ in range(3):
            with pytest.raises(TransientReadError):
                disk.charge_random_read(1)
        disk.charge_random_read(1)
        path = disk.dump_transcript(tmp_path / "transcript.json")
        payload = json.loads(path.read_text())
        assert payload["operations"] == disk.operations
        assert len(payload["events"]) == 3
        assert payload["plan"]["read_error_rate"] == 1.0
        assert all(e["op"] == "read" for e in payload["events"])


class TestNullPlanEquivalence:
    def test_counters_identical_to_plain_disk(self):
        plain = SimulatedDisk(block_elems=16)
        faulty = FaultyDisk(FaultPlan(), block_elems=16)
        for disk in (plain, faulty):
            disk.charge_sequential_write(100)
            disk.charge_sequential_read(100)
            disk.charge_random_read(3)
            disk.charge_sequential_read(50)
            disk.charge_sequential_write(50)
        assert (
            plain.stats.counters.snapshot()
            == faulty.stats.counters.snapshot()
        )
        assert faulty.operations == 0  # null plan never consults the RNG
