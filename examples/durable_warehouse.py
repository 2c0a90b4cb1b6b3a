"""Durable warehouse: checkpoint, 'crash', recover, keep ingesting.

A data-stream warehouse must survive restarts without losing either
the archived partitions or the live stream sketch's state.  This demo
checkpoints the engine, discards the in-memory instance (the "crash"),
restores from disk, verifies the answers are identical, and then keeps
ingesting — plus shows that corruption of a partition file is caught by
the manifest checksums.

    python examples/durable_warehouse.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import HybridQuantileEngine
from repro.persistence import (
    PersistenceError,
    load_engine,
    save_engine,
)
from repro.workloads import UniformWorkload

STEPS = 12
BATCH = 20_000


def main() -> None:
    workload = UniformWorkload(seed=3)
    engine = HybridQuantileEngine(epsilon=0.01, kappa=4, block_elems=100)
    for _ in range(STEPS):
        engine.stream_update_many(workload.generate(BATCH))
        engine.end_time_step()
    engine.stream_update_many(workload.generate(BATCH))  # live stream

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "warehouse"
        save_engine(engine, checkpoint)
        files = sorted(p.name for p in (checkpoint / "warehouse").iterdir())
        print(f"Checkpointed {engine.n_total:,} elements to {checkpoint}")
        print(f"  warehouse files: {', '.join(files)}\n")

        before = {phi: engine.quantile(phi).value
                  for phi in (0.25, 0.5, 0.95)}
        del engine  # the "crash"

        restored = load_engine(checkpoint)
        print("Recovered engine state:")
        print(f"  historical: {restored.n_historical:,} elements over "
              f"{restored.steps_loaded} steps")
        print(f"  live stream: {restored.m_stream:,} elements "
              "(sketch state intact)")
        agreement = all(
            restored.quantile(phi).value == value
            for phi, value in before.items()
        )
        print(f"  answers identical to pre-crash: {agreement}\n")

        restored.end_time_step()
        restored.stream_update_many(workload.generate(BATCH))
        print(f"Continued ingesting: now {restored.n_total:,} elements, "
              f"median {restored.quantile(0.5).value:,}\n")

        # Corrupt one partition file: recovery must refuse it.
        save_engine(restored, checkpoint)
        victim = next(iter((checkpoint / "warehouse").glob("part-*.npy")))
        blob = bytearray(victim.read_bytes())
        blob[-3] ^= 0xFF
        victim.write_bytes(bytes(blob))
        try:
            load_engine(checkpoint)
            print("corruption was NOT detected (unexpected)")
        except (PersistenceError, ValueError) as exc:
            print(f"Corrupted {victim.name}: recovery correctly refused —")
            print(f"  {exc}")


if __name__ == "__main__":
    main()
