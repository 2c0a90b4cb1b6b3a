"""Fixtures for the serving-layer test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import HybridQuantileEngine
from repro.core import EngineConfig

PHIS = (0.25, 0.5, 0.75, 0.95, 0.99)


def build_filled_engine(
    steps: int = 4,
    batch: int = 1200,
    live: int = 800,
    seed: int = 11,
    ingest_mode: str = "sync",
    epsilon: float = 0.02,
    kappa: int = 3,
) -> HybridQuantileEngine:
    """A small engine with sealed history plus a live stream tail."""
    config = EngineConfig(
        epsilon=epsilon,
        kappa=kappa,
        block_elems=64,
        ingest_mode=ingest_mode,
    )
    engine = HybridQuantileEngine(config=config)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        engine.stream_update_many(
            rng.integers(0, 1_000_000, batch, dtype=np.int64)
        )
        engine.end_time_step()
    if ingest_mode == "background":
        engine.flush()
    if live:
        engine.stream_update_many(
            rng.integers(0, 1_000_000, live, dtype=np.int64)
        )
    return engine


@pytest.fixture
def filled_engine() -> HybridQuantileEngine:
    engine = build_filled_engine()
    yield engine
    engine.close()
