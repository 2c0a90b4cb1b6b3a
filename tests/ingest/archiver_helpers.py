"""Helpers shared by the archiver's unit and fault tests."""

import numpy as np

from repro.ingest import PendingBatch


def enqueue(archiver, batch):
    """Claim a queue slot (blocking under backpressure), then fill it."""
    archiver.reserve()
    archiver.enqueue_reserved(batch)


def make_batch(step, size=100, seed=0):
    rng = np.random.default_rng(seed + step)
    return PendingBatch(
        step=step, values=rng.integers(0, 10**6, size=size).astype(np.int64)
    )
