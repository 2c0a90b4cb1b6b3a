"""Block reads racing tier moves of the run they read.

A file-backed run is read as a slice of its memory map, in whichever
tier holds the file.  Pressure eviction and policy migration move that
file under readers holding the run's handle; every slice they get must
still be the run's own elements.
"""

import sys
import threading
import time

import numpy as np

from repro.storage import ObjectStoreBackend
from repro.storage.backends import OBJECT_TIER

BLOCK_ELEMS = 64
BLOCKS = 48
READERS = 4
CYCLES = 50


def run_values(run_id):
    """Elements distinct per run, so a read of the wrong file shows."""
    return (
        np.arange(BLOCKS * BLOCK_ELEMS, dtype=np.int64) * 7
        + run_id * 1_000_000
    )


def test_reads_racing_eviction_and_migration(tmp_path):
    backend = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
    runs = []  # (handle, values); readers read the newest
    stop = threading.Event()
    reads = [0] * READERS
    failures = []

    def allocate(run_id):
        values = run_values(run_id)
        handle = backend.allocate_run(run_id, values)
        handle.block_elems = BLOCK_ELEMS
        return handle, values

    def read_random_ranges(index):
        rng = np.random.default_rng(index)
        try:
            while not stop.is_set():
                handle, values = runs[-1]
                first, last = sorted(int(b) for b in rng.integers(0, BLOCKS, 2))
                got = np.array(handle.read_blocks(first, last))
                want = values[first * BLOCK_ELEMS : (last + 1) * BLOCK_ELEMS]
                if not np.array_equal(got, want):
                    failures.append((handle.run_id, first, last))
                reads[index] += 1
        except Exception as error:  # reported by the assertion below
            failures.append(repr(error))

    runs.append(allocate(0))
    readers = [
        threading.Thread(target=read_random_ranges, args=(index,))
        for index in range(READERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for reader in readers:
            reader.start()
        for cycle in range(CYCLES):
            run_id = 2 * cycle + 1
            runs.append(allocate(run_id))
            # Let the readers reach the fresh run before it moves.
            floor = sum(reads) + READERS
            while sum(reads) < floor and not failures:
                time.sleep(0)
            if cycle % 2:
                backend.place_run(run_id, level=1)  # policy migration
            else:
                # A zero budget: the filler's allocation evicts every
                # hot run, the fresh one and the filler included.
                backend.hot_tier_bytes = 0
                allocate(run_id + 1)
                backend.hot_tier_bytes = None
        time.sleep(0.05)
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []
    assert all(reads)
    stats = backend.stats()
    # Run 0 goes in the first eviction, with that cycle's two runs.
    assert stats.evicted_runs == CYCLES + 1
    assert stats.migrations == stats.evicted_runs + CYCLES // 2
    assert all(handle.tier == OBJECT_TIER for handle, _ in runs)
    backend.close()
