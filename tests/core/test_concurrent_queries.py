"""User threads sharing one engine: each query's block cache is its own.

Every accurate query builds a fresh per-query ``BlockCache`` that only
its own thread touches, so the cache takes no lock; what queries share
(the disk's counters, the executor's retry counter) guards itself.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro import HybridQuantileEngine

from ..conftest import fill_engine

PHIS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def build_engine() -> HybridQuantileEngine:
    engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
    fill_engine(
        engine, np.random.default_rng(2026), steps=9, batch=900, live=700
    )
    return engine


def test_many_threads_driving_one_engine():
    with build_engine() as oracle:
        expected = {phi: oracle.quantile(phi).value for phi in PHIS}
        expected_io = oracle.disk.stats.query.random_reads

    with build_engine() as engine:
        errors = []

        def worker(phi):
            try:
                for _ in range(3):
                    result = engine.quantile(phi)
                    assert result.value == expected[phi], phi
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(phi,)) for phi in PHIS
        ]
        # Switch threads often, so a cache shared between queries would
        # lose charges or mix up pinned blocks.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        # Each query charges the same blocks regardless of interleaving,
        # so the grand total is exactly 3x the one-pass-per-phi serial
        # total.
        assert engine.disk.stats.query.random_reads == 3 * expected_io
