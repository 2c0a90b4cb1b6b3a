"""Partial scatter/gather: quorum, widened bounds, mid-query degradation."""

import numpy as np
import pytest

from repro.cluster import ClusterEngine, ClusterUnavailable
from repro.core.config import EngineConfig
from repro.faults.plan import FaultPlan

PHIS = (0.1, 0.5, 0.9)


def make_config(**overrides):
    base = dict(epsilon=0.02, block_elems=100, sketch_backend="kll")
    base.update(overrides)
    return EngineConfig(**base)


def feed_cluster(cluster, seed=77, steps=3, size=4000):
    rng = np.random.default_rng(seed)
    fed = []
    for _ in range(steps):
        batch = rng.integers(0, 1_000_000, size=size).astype(np.int64)
        cluster.stream_update_many(batch)
        cluster.end_time_step()
        fed.append(batch)
    return np.sort(np.concatenate(fed))


def exact_rank_bracket(universe, value):
    lo = int(np.searchsorted(universe, value, side="left"))
    hi = int(np.searchsorted(universe, value, side="right"))
    return lo, hi


def test_strict_gather_raises_when_quarantined(tmp_path):
    cluster = ClusterEngine(
        shards=3, config=make_config(), wal_dir=tmp_path / "wal"
    )
    feed_cluster(cluster)
    cluster.kill_shard(1, "poisoned")
    with pytest.raises(ClusterUnavailable, match="strict"):
        cluster.quantile(0.5)
    cluster.close()


def test_quorum_must_hold(tmp_path):
    cluster = ClusterEngine(
        shards=2,
        config=make_config(min_gather_shards=2),
        wal_dir=tmp_path / "wal",
    )
    feed_cluster(cluster)
    cluster.kill_shard(0, "poisoned")
    with pytest.raises(ClusterUnavailable, match="quorum"):
        cluster.quantile(0.5)
    cluster.close()


@pytest.mark.parametrize("mode", ["quick", "accurate"])
def test_partial_answer_within_widened_bound(tmp_path, mode):
    cluster = ClusterEngine(
        shards=4,
        config=make_config(min_gather_shards=2),
        wal_dir=tmp_path / "wal",
    )
    universe = feed_cluster(cluster)
    total = len(universe)
    cluster.kill_shard(2, "poisoned")
    missing = cluster._shard_elems[2]
    for phi in PHIS:
        result = cluster.quantile(phi, mode=mode)
        partial = result.partial
        assert partial is not None
        assert partial.missing_shards == (2,)
        assert partial.missing_elements == missing
        assert partial.shards_answering == 3
        assert partial.shards_answering + len(partial.missing_shards) == 4
        # The widening is exactly base + missing (Lemma in bounds.py).
        assert result.rank_error_bound == pytest.approx(
            partial.base_bound + missing
        )
        # Soundness against the FULL union, dead shard's data included:
        # the answer's exact full-union rank is within the widened
        # bound of the full-union target rank (+1 for rank rounding).
        target = max(1, int(np.ceil(phi * total)))
        lo, hi = exact_rank_bracket(universe, result.value)
        distance = max(lo + 1 - target, target - hi, 0)
        assert distance <= result.rank_error_bound + 1
    cluster.close()


def test_quantile_many_quick_reports_partial(tmp_path):
    cluster = ClusterEngine(
        shards=4,
        config=make_config(min_gather_shards=1),
        wal_dir=tmp_path / "wal",
    )
    feed_cluster(cluster)
    cluster.kill_shard(0, "poisoned")
    results = cluster.quantile_many(list(PHIS), mode="quick")
    assert all(r.partial is not None for r in results)
    assert all(r.partial.missing_shards == (0,) for r in results)
    cluster.close()


@pytest.mark.parametrize("quorum", [0, 2])
def test_midquery_fault_degrades_to_quick(quorum):
    """A disk fault during the gather degrades the query to a quick
    answer over the full TS, whatever the quorum: no shard is dropped."""
    # Shard 1's every read is a persistent corruption fault; ingest
    # (writes) is untouched, and kappa is high enough that no merge
    # reads run before the query.
    plan = FaultPlan(seed=5, corrupt_rate=1.0, shard_scope=(1,))
    cluster = ClusterEngine(
        shards=3,
        config=make_config(min_gather_shards=quorum),
        fault_plan=plan,
    )
    universe = feed_cluster(cluster, steps=2)
    degraded = cluster.quantile(0.5, mode="accurate")
    assert degraded.degraded
    assert degraded.partial is None  # nothing excluded: full quick TS
    # eps1 * n, nothing live: 0.01 * 8 000 sealed elements.
    assert degraded.rank_error_bound == pytest.approx(80.0)
    lo, hi = exact_rank_bracket(universe, degraded.value)
    target = degraded.target_rank
    assert max(lo + 1 - target, target - hi, 0) <= degraded.rank_error_bound
    # Counted once, on the shard whose disk faulted.
    assert [s.reliability.degraded_queries for s in cluster.shards] == [
        0, 1, 0,
    ]
    cluster.close()


def test_quorum_above_the_shard_count_is_refused():
    with pytest.raises(ValueError, match="min_gather_shards"):
        ClusterEngine(shards=2, config=make_config(min_gather_shards=3))
    ClusterEngine(shards=2, config=make_config(min_gather_shards=2)).close()


def test_full_gather_has_no_partial_metadata(tmp_path):
    cluster = ClusterEngine(
        shards=3,
        config=make_config(min_gather_shards=1),
        wal_dir=tmp_path / "wal",
    )
    feed_cluster(cluster)
    for mode in ("quick", "accurate"):
        assert cluster.quantile(0.5, mode=mode).partial is None
    for result in cluster.quantile_many(list(PHIS), mode="quick"):
        assert result.partial is None
    cluster.close()
