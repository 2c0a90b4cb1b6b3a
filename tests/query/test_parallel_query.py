"""The modeled parallel critical path of an accurate query.

Partitions are probed one after another, but ``parallel_sim_seconds``
models a disk that serves every partition at once: the cost of the
deepest single-partition chain. It can never exceed the serial charge.
"""

from __future__ import annotations

import numpy as np

from repro import EngineConfig, HybridQuantileEngine

from ..conftest import fill_engine

PHIS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def build_engine() -> HybridQuantileEngine:
    config = EngineConfig(epsilon=0.05, kappa=3, block_elems=16)
    engine = HybridQuantileEngine(config=config)
    rng = np.random.default_rng(2026)
    fill_engine(engine, rng, steps=9, batch=900, live=700)
    return engine


class TestSerialParallelEquivalence:
    def test_parallel_sim_never_exceeds_serial_sim(self):
        with build_engine() as engine:
            for phi in PHIS:
                result = engine.quantile(phi)
                assert result.disk_accesses > 0
                assert result.parallel_sim_seconds <= (
                    result.sim_seconds + 1e-12
                )
