"""Unit tests for the simulated block device."""

import pytest

from repro.storage import SimulatedDisk
from repro.storage.stats import DiskLatencyModel


class TestBlockArithmetic:
    def test_blocks_for_exact_multiple(self):
        disk = SimulatedDisk(block_elems=10)
        assert disk.blocks_for(100) == 10

    def test_blocks_for_rounds_up(self):
        disk = SimulatedDisk(block_elems=10)
        assert disk.blocks_for(101) == 11
        assert disk.blocks_for(1) == 1

    def test_blocks_for_empty(self):
        disk = SimulatedDisk(block_elems=10)
        assert disk.blocks_for(0) == 0

    def test_block_of(self):
        disk = SimulatedDisk(block_elems=10)
        assert disk.block_of(0) == 0
        assert disk.block_of(9) == 0
        assert disk.block_of(10) == 1

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            SimulatedDisk(block_elems=0)


class TestCharging:
    def test_sequential_write_charges_blocks(self):
        disk = SimulatedDisk(block_elems=4)
        disk.charge_sequential_write(10)
        assert disk.stats.counters.sequential_writes == 3

    def test_sequential_read_charges_blocks(self):
        disk = SimulatedDisk(block_elems=4)
        disk.charge_sequential_read(12)
        assert disk.stats.counters.sequential_reads == 3

    def test_random_read_charge(self):
        disk = SimulatedDisk(block_elems=4)
        disk.charge_random_read(5)
        assert disk.stats.counters.random_reads == 5

    def test_simulated_seconds_uses_latency_model(self):
        disk = SimulatedDisk(
            block_elems=4,
            latency=DiskLatencyModel(
                seconds_per_sequential_block=1.0,
                seconds_per_random_block=10.0,
            ),
        )
        disk.charge_sequential_write(8)  # 2 blocks
        disk.charge_random_read(1)
        assert disk.simulated_seconds() == pytest.approx(12.0)
