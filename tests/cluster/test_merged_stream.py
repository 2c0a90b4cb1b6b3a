"""A cluster's live stream is one merged KLL sketch.

``ClusterEngine.pin`` merges the shards' pinned sketches into one
``StreamView`` and reuses it while no shard's view changes, so the
memo's retained TS survives between writes; a GK sketch does not merge,
so a cluster refuses it by name.
"""

import numpy as np
import pytest

from repro import ExactQuantiles
from repro.cluster import ClusterEngine
from repro.core.config import EngineConfig
from repro.sketches.kll import KLLSketch

PHIS = np.linspace(0.01, 0.99, 25)


def test_a_gk_cluster_is_refused_by_name():
    with pytest.raises(ValueError, match="sketch_backend='kll'"):
        ClusterEngine(shards=2, config=EngineConfig(epsilon=0.05))
    # Given only epsilon, a cluster builds KLL shards.
    with ClusterEngine(shards=2, epsilon=0.05) as cluster:
        assert cluster.config.sketch_backend == "kll"
        assert all(
            isinstance(shard.stream_sketch(), KLLSketch)
            for shard in cluster.shards
        )


def count_merges(monkeypatch):
    merges = []
    merge_many = KLLSketch.merge_many.__func__

    def counting(cls, sketches, seed=0):
        merges.append(len(sketches))
        return merge_many(cls, sketches, seed)

    monkeypatch.setattr(KLLSketch, "merge_many", classmethod(counting))
    return merges


def test_pins_between_writes_share_one_merged_stream(monkeypatch):
    merges = count_merges(monkeypatch)
    config = EngineConfig(epsilon=0.05, block_elems=16, sketch_backend="kll")
    rng = np.random.default_rng(8)
    with ClusterEngine(shards=4, config=config) as cluster:
        cluster.stream_update_many(rng.integers(0, 10**6, 4000))
        cluster.end_time_step()
        cluster.stream_update_many(rng.integers(0, 10**6, 1000))
        memo = cluster._historical_memo
        with cluster.pin() as first, cluster.pin() as second:
            assert first._stream is second._stream
            assert first.scope()[1] is second.scope()[1]
            assert first.combined() is second.combined()
            assert memo.reuses == 1
        assert merges == [4]
        cluster.stream_update_many(rng.integers(0, 10**6, 10))
        with cluster.pin() as third, cluster.pin() as fourth:
            assert third._stream is fourth._stream is not first._stream
        assert merges == [4, 4]


@pytest.mark.parametrize("shards", [2, 4])
def test_a_compacting_merge_keeps_both_bounds(shards):
    """Every shard's live sketch is past its ``k``, so the merge pools
    more than a level holds and compacts; the answers still meet the
    bounds their results report."""
    config = EngineConfig(epsilon=0.1, block_elems=64, sketch_backend="kll")
    rng = np.random.default_rng(12)
    oracle = ExactQuantiles()
    with ClusterEngine(shards=shards, config=config) as cluster:
        for size, seal in ((6000, True), (6000, True), (3000 * shards, False)):
            data = rng.integers(0, 10**6, size)
            oracle.update_many(data)
            cluster.stream_update_many(data)
            if seal:
                cluster.end_time_step()
        with cluster.pin() as snapshot:
            sketches = [h.gk for h in snapshot.handles]
            assert all(s.n > s.k for s in sketches)
            merged = snapshot._stream.sketch
            assert merged.n == sum(s.n for s in sketches)
            assert merged.retained() < sum(s.retained() for s in sketches)
            for phi in PHIS:
                for mode, slack in (("quick", 2), ("accurate", 1)):
                    result = snapshot.quantile(float(phi), mode=mode)
                    high = oracle.rank(result.value)
                    low = oracle.rank_strict(result.value) + 1
                    target = result.target_rank
                    err = max(0, low - target, target - high)
                    assert err <= slack * result.rank_error_bound + 2, (
                        mode, phi, err, result.rank_error_bound,
                    )
