"""The real reads of an accurate query match what it was charged for.

Section 2.4 lets a query assume a block it paid for stays in memory,
so a query must not fetch a paid-for block's bytes again on every
bisect step.  These tests count ``read_blocks`` on the run handles of
a cold object-tier engine.
"""

import numpy as np
import pytest

from repro import EngineConfig, HybridQuantileEngine

from ..storage.read_counting import counted_block_reads, recorded_touches

PHIS = (0.03, 0.25, 0.5, 0.77, 0.99)


def object_engine(tmp_path, **overrides):
    config = EngineConfig(
        epsilon=0.01,
        kappa=3,
        block_elems=64,
        storage_backend="object",
        storage_dir=str(tmp_path / "bucket"),
        object_tier_level=1,
        **overrides,
    )
    engine = HybridQuantileEngine(config=config)
    rng = np.random.default_rng(23)
    for _ in range(11):
        engine.stream_update_many(rng.integers(0, 1 << 40, size=3000))
        engine.end_time_step()
    engine.stream_update_many(rng.integers(0, 1 << 40, size=1500))
    assert engine.disk.backend.stats().object_runs > 0
    return engine


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({}, id="bisect"),
        pytest.param({"shared_cache_blocks": 256}, id="bisect-shared-prefetch"),
    ],
)
def test_each_block_is_fetched_at_most_once_per_query(tmp_path, overrides):
    engine = object_engine(tmp_path, **overrides)
    try:
        for phi in PHIS:
            with counted_block_reads() as reads, recorded_touches() as touched:
                result = engine.quantile(phi, mode="accurate")
            assert reads.calls > 0
            # No block's bytes are fetched twice by one query ...
            assert len(reads) == len(set(reads))
            # ... and only blocks it touched (paid for, or was given by
            # the shared tier) are fetched at all.
            assert set(reads) <= set(touched)
            assert reads.calls <= len(set(touched))
            assert result.disk_accesses <= len(touched)
    finally:
        engine.close()


def test_disabled_block_cache_still_reads_per_probe(tmp_path):
    """``block_cache=False`` is the one setting with nothing to pin into."""
    engine = object_engine(tmp_path, block_cache=False)
    try:
        with counted_block_reads() as reads:
            result = engine.quantile(0.5, mode="accurate")
        assert reads.calls == result.disk_accesses
        assert len(reads) > len(set(reads))
    finally:
        engine.close()
