"""Tiered storage: the same engine on RAM, mmap files, and a bucket.

The storage backend decides where run payloads live — resident arrays
(``simulated``, the default), one atomically-committed ``.npy`` file
per run read through mmap (``mmap``), or hot files plus an emulated
S3-like bucket that cold warehouse levels age into (``object``).  It
never decides what a query answers or charges: this demo feeds the
same seeded stream through all three backends and shows bit-identical
quick and accurate answers with bit-identical charged block I/O, while
the object tier racks up GETs, PUTs and migrations on top — and shows
the shared cache absorbing the GETs of a warm sweep entirely.

    python examples/tiered_storage.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro import EngineConfig, HybridQuantileEngine

STEPS = 8
BATCH = 20_000
SEED = 42
PHIS = (0.05, 0.5, 0.95, 0.99)
BACKENDS = ("simulated", "mmap", "object")


def build_engine(backend: str, directory: Path) -> HybridQuantileEngine:
    config = EngineConfig(
        epsilon=0.01,
        kappa=3,  # small fan-in so runs merge upward and go cold
        block_elems=100,
        shared_cache_blocks=4096,
        storage_backend=backend,
        storage_dir=str(directory) if backend != "simulated" else None,
        object_tier_level=1,
    )
    engine = HybridQuantileEngine(config=config)
    rng = np.random.default_rng(SEED)
    for _ in range(STEPS):
        engine.stream_update_many(
            rng.normal(5e5, 1e5, BATCH).astype(np.int64)
        )
        engine.end_time_step()
    engine.stream_update_many(rng.normal(5e5, 1e5, BATCH).astype(np.int64))
    return engine


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="repro-tiered-"))
    answers = {}
    charged = {}
    try:
        for backend in BACKENDS:
            engine = build_engine(backend, root / backend)
            device = engine.disk.backend

            quick = [
                engine.quantile(p, mode="quick").value for p in PHIS
            ]
            cold_before = device.stats()
            accurate = [
                engine.quantile(p, mode="accurate").value for p in PHIS
            ]
            cold = device.stats().since(cold_before)

            warm_before = device.stats()
            for p in PHIS:
                engine.quantile(p, mode="accurate")
            warm = device.stats().since(warm_before)

            counters = engine.disk.stats.counters
            answers[backend] = (quick, accurate)
            charged[backend] = counters.random_reads

            print(f"=== {backend} backend ===")
            print(f"  quick    : {quick}")
            print(f"  accurate : {accurate}")
            print(f"  charged random reads : {counters.random_reads}")
            if backend == "object":
                stats = device.stats()
                print(f"  tier residency : {stats.object_runs} runs cold, "
                      f"{stats.hot_runs} hot "
                      f"({stats.migrations} migrations)")
                print(f"  cold sweep : {cold.gets} GETs "
                      f"({cold.get_blocks} blocks)")
                print(f"  warm sweep : {warm.gets} GETs "
                      "(shared-cache hits never become requests)")
                print("  modeled seconds with request latency : "
                      f"{engine.disk.simulated_seconds():.4f}")
            engine.close()

        baseline = answers["simulated"]
        assert all(answers[b] == baseline for b in BACKENDS)
        assert len({charged[b] for b in BACKENDS}) == 1
        print("\nall three backends: bit-identical answers, "
              f"identical {charged['simulated']} charged blocks")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
