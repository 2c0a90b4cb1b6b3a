"""Property test: warehouse persistence round-trips any store state."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persistence import load_store, save_store
from repro.storage import SimulatedDisk
from repro.warehouse import LeveledCompactionStore, LeveledStore


@given(
    kappa=st.integers(2, 4),
    steps=st.integers(1, 25),
    seed=st.integers(0, 10**6),
    leveled=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_roundtrip_any_schedule(tmp_path_factory, kappa, steps, seed,
                                leveled):
    directory = tmp_path_factory.mktemp("wh")
    disk = SimulatedDisk(block_elems=8)
    store_cls = LeveledCompactionStore if leveled else LeveledStore
    store = store_cls(disk, kappa=kappa)
    rng = np.random.default_rng(seed)
    for step in range(1, steps + 1):
        store.add_batch(rng.integers(0, 1000, 37), step=step)
    save_store(store, directory)
    restored = load_store(
        directory, store_cls(SimulatedDisk(block_elems=8), kappa=kappa)
    )
    restored.check_invariant()
    assert restored.steps_loaded == store.steps_loaded
    original = [
        (p.level, p.start_step, p.end_step) for p in store.partitions()
    ]
    loaded = [
        (p.level, p.start_step, p.end_step) for p in restored.partitions()
    ]
    assert loaded == original
    all_original = np.sort(
        np.concatenate([p.run.values for p in store.partitions()])
    )
    all_loaded = np.sort(
        np.concatenate([p.run.values for p in restored.partitions()])
    )
    np.testing.assert_array_equal(all_loaded, all_original)
