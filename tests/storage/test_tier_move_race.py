"""Block reads racing tier moves of the run they read.

A file-backed run is read as a slice of its memory map, in whichever
tier holds the file.  Migration, pressure eviction and promotion move
that file under readers holding the run's handle; every slice they get
must still be the run's own elements.
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


def test_reads_racing_migration_eviction_and_promotion(tmp_path):
    data = np.arange(BLOCKS * BLOCK_ELEMS, dtype=np.int64) * 7 - 1_000
    backend = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
    handle = backend.allocate_run(0, data)
    handle.block_elems = BLOCK_ELEMS
    stop = threading.Event()
    reads = [0] * READERS
    failures = []

    def read_random_ranges(index):
        rng = np.random.default_rng(index)
        try:
            while not stop.is_set():
                first, last = sorted(int(b) for b in rng.integers(0, BLOCKS, 2))
                got = np.array(handle.read_blocks(first, last))
                want = data[first * BLOCK_ELEMS : (last + 1) * BLOCK_ELEMS]
                if not np.array_equal(got, want):
                    failures.append((first, last))
                reads[index] += 1
        except Exception as error:  # reported by the assertion below
            failures.append(repr(error))

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
            # A zero budget: the next allocation evicts every hot run,
            # the filler included.
            backend.hot_tier_bytes = 0
            backend.allocate_run(1 + cycle, data[:BLOCK_ELEMS])
            backend.hot_tier_bytes = None
            backend.place_run(0, level=0)  # promotes the evicted run
        backend.place_run(0, level=1)  # policy migration: cold for good
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
    assert stats.evicted_runs == 2 * CYCLES
    assert stats.migrations == 2 * CYCLES + 1
    assert handle.tier == OBJECT_TIER
    backend.close()
