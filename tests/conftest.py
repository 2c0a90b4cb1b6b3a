"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import HybridQuantileEngine
from repro.faults.retry import RetryPolicy
from repro.storage import SimulatedDisk

# Autouse: every HistoricalMemo.check_invariants call sweeps the TS doors.
from .core.ts_arrays_reference import sweep_after_check_invariants  # noqa: F401


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def disk() -> SimulatedDisk:
    return SimulatedDisk(block_elems=16)


@pytest.fixture
def no_backoff(monkeypatch) -> None:
    """Every retry is still taken and counted; none of them sleeps."""
    monkeypatch.setattr(RetryPolicy, "sleep_before", lambda self, attempt: 0.0)


@pytest.fixture
def small_engine() -> HybridQuantileEngine:
    """An engine sized for fast unit tests."""
    return HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)


def fill_engine(
    engine: HybridQuantileEngine,
    rng: np.random.Generator,
    steps: int = 5,
    batch: int = 1500,
    live: int = 1500,
    low: int = 0,
    high: int = 1_000_000,
) -> np.ndarray:
    """Load ``steps`` batches plus a live stream; return all data."""
    chunks = []
    for _ in range(steps):
        data = rng.integers(low, high, batch, dtype=np.int64)
        engine.stream_update_many(data)
        engine.end_time_step()
        chunks.append(data)
    data = rng.integers(low, high, live, dtype=np.int64)
    engine.stream_update_many(data)
    chunks.append(data)
    return np.concatenate(chunks)
