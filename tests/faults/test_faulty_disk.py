"""Tests for the simulated disk's fault injection."""

import json
import threading

import pytest

from repro.faults import (
    CorruptedBlockError,
    FaultPlan,
    TransientReadError,
    TransientWriteError,
)
from repro.storage import SimulatedDisk
from repro.storage.stats import DiskStats


class TestFaultRaising:
    def test_pinned_read_fault(self):
        disk = SimulatedDisk(16, plan=FaultPlan(fail_at={("read", 0)}))
        with pytest.raises(TransientReadError) as excinfo:
            disk.charge_random_read(1)
        assert excinfo.value.transient
        assert excinfo.value.op == "read"
        assert excinfo.value.index == 0

    def test_pinned_write_fault(self):
        disk = SimulatedDisk(16, plan=FaultPlan(fail_at={("write", 0)}))
        with pytest.raises(TransientWriteError):
            disk.charge_sequential_write(10)

    def test_corruption_is_persistent(self):
        disk = SimulatedDisk(16, plan=FaultPlan(corrupt_rate=1.0))
        with pytest.raises(CorruptedBlockError) as excinfo:
            disk.charge_sequential_read(10)
        assert not excinfo.value.transient

    def test_faulted_op_charges_nothing(self):
        disk = SimulatedDisk(16, plan=FaultPlan(read_error_rate=1.0))
        with pytest.raises(TransientReadError):
            disk.charge_random_read(1)
        assert disk.stats.counters.random_reads == 0
        assert disk.stats.counters.sequential_reads == 0

    def test_max_faults_caps_the_burst(self):
        disk = SimulatedDisk(
            16, plan=FaultPlan(read_error_rate=1.0, max_faults=2)
        )
        for _ in range(2):
            with pytest.raises(TransientReadError):
                disk.charge_random_read(1)
        disk.charge_random_read(1)  # budget exhausted: op succeeds
        assert disk.faults_fired == 2
        assert disk.stats.counters.random_reads == 1

    def test_max_faults_caps_the_burst_across_threads(self):
        """Four threads race for a three-fault budget: exactly three
        fire, and each thread's capture holds only its own charges."""
        disk = SimulatedDisk(
            16, plan=FaultPlan(read_error_rate=1.0, max_faults=3)
        )
        ready = threading.Barrier(4)
        tallies, faults = [], []

        def client():
            with disk.stats.capture() as tally:
                ready.wait()
                for _ in range(50):
                    try:
                        disk.charge_random_read(1)
                    except TransientReadError as fault:
                        faults.append(fault)
            tallies.append(tally)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(faults) == 3
        assert disk.faults_fired == len(disk.transcript) == 3
        combined = DiskStats()
        for tally in tallies:
            combined.add(tally)
        assert combined == disk.stats
        assert disk.stats.query.random_reads == 4 * 50 - 3

    def test_stall_succeeds(self):
        disk = SimulatedDisk(
            16, plan=FaultPlan(stall_rate=1.0, stall_seconds=0.0)
        )
        disk.charge_sequential_write(10)
        assert disk.stats.counters.sequential_writes > 0
        assert disk.faults_fired == 1


class TestTranscript:
    def test_events_recorded_and_dumped(self, tmp_path):
        disk = SimulatedDisk(
            16, plan=FaultPlan(seed=2, read_error_rate=1.0, max_faults=3)
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
        # Consulted before every operation, and never fires.
        faulty = SimulatedDisk(16, plan=FaultPlan(fail_at={("write", 99)}))
        for disk in (plain, faulty):
            disk.charge_sequential_write(100)
            disk.charge_sequential_read(100)
            disk.charge_random_read(3)
            disk.charge_sequential_read(50)
            disk.charge_sequential_write(50)
        assert plain.stats.counters == faulty.stats.counters
        assert plain.operations == 0  # null plan never consulted
        assert faulty.operations == 5 and faulty.faults_fired == 0
