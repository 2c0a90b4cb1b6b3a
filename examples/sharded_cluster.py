"""Sharded cluster: one stream fanned over four engines.

A :class:`~repro.cluster.ClusterEngine` sends each time step whole to
one of N independent engines (its home shard), each with its own
simulated disk.  Steps and accurate-query I/O land on different
devices, so the modeled cost is the *critical path* — the max
per-shard simulated seconds — not the sum.  This demo feeds the same seeded stream into a plain
engine and a 4-shard cluster (KLL backend, so per-shard summaries
merge without inflating the bound), compares simulated ingest I/O,
shows quick answers agreeing within bounds and accurate answers
gathering the exact union rank, then round-trips the cluster through
a checkpoint.

    python examples/sharded_cluster.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import ClusterEngine, EngineConfig, HybridQuantileEngine
from repro.cluster import load_cluster, save_cluster

SHARDS = 4
STEPS = 6
BATCH = 20_000
PHIS = (0.1, 0.5, 0.9, 0.99)


def feed(target, seed=1234):
    rng = np.random.default_rng(seed)
    for _ in range(STEPS):
        target.stream_update_many(
            rng.integers(0, 2**32, BATCH, dtype=np.int64)
        )
        target.end_time_step()
    target.flush()


def main() -> None:
    config = EngineConfig(
        epsilon=0.01, kappa=4, block_elems=100, sketch_backend="kll"
    )
    single = HybridQuantileEngine(config=config)
    cluster = ClusterEngine(shards=SHARDS, config=config)
    feed(single)
    feed(cluster)

    single_sim = single.disk.simulated_seconds()
    per_shard = cluster.per_shard_sim_seconds()
    critical = max(per_shard)
    print(f"ingest: {STEPS} steps x {BATCH:,} values, {SHARDS} shards")
    print(f"  single-engine simulated I/O   {single_sim * 1e3:8.1f} ms")
    print(f"  cluster critical path (max)   {critical * 1e3:8.1f} ms"
          f"  ({single_sim / critical:.1f}x)")
    for report in cluster.shard_reports():
        print(f"    shard {report['shard']}: n={report['n_historical']:,}"
              f"  sim={report['sim_seconds'] * 1e3:.1f} ms"
              f"  random reads={report['io_random']}")

    print(f"\n{'phi':>5} {'single acc':>12} {'cluster acc':>12}"
          f" {'cluster quick':>14} {'quick err<=':>11}")
    for phi in PHIS:
        exact = single.quantile(phi, mode="accurate")
        gathered = cluster.quantile(phi, mode="accurate")
        quick = cluster.quantile(phi, mode="quick")
        print(f"{phi:>5} {exact.value:>12,} {gathered.value:>12,}"
              f" {quick.value:>14,} {quick.rank_error_bound:>11.0f}")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "cluster"
        save_cluster(cluster, root)
        restored = load_cluster(root)
        same = all(
            restored.quantile(phi, mode="accurate").value
            == cluster.quantile(phi, mode="accurate").value
            for phi in PHIS
        )
        restored.close()
    print(f"\ncheckpoint round-trip: answers identical = {same}")
    print("accurate answers gather the exact union rank across shards;")
    print("quick answers share one fused merged-KLL summary per epoch.")

    single.close()
    cluster.close()


if __name__ == "__main__":
    main()
