"""Quickstart: quantiles over the union of historical and streaming data.

Runs the hybrid engine over a few archived time steps plus a live
stream, queries the median and tail quantiles both ways (quick and
accurate), and checks the answers against an exact oracle.

    python examples/quickstart.py
"""

import numpy as np

from repro import ExactQuantiles, HybridQuantileEngine

EPSILON = 0.01  # rank error <= ~EPSILON * stream_size
KAPPA = 10      # merge threshold of the historical store
STEPS = 20      # archived time steps
BATCH = 50_000  # elements per time step


def main() -> None:
    rng = np.random.default_rng(7)
    engine = HybridQuantileEngine(epsilon=EPSILON, kappa=KAPPA,
                                  block_elems=100)
    oracle = ExactQuantiles()  # ground truth, for demonstration only

    print(f"Loading {STEPS} time steps of {BATCH:,} elements each...")
    for step in range(STEPS):
        batch = rng.normal(100e6, 10e6, BATCH).astype(np.int64)
        engine.stream_update_many(batch)    # live stream
        oracle.update_many(batch)
        report = engine.end_time_step()     # archive into the warehouse
        if report.merged_levels:
            print(f"  step {report.step}: merged partitions "
                  f"({report.io_total:,} disk accesses)")

    live = rng.normal(100e6, 10e6, BATCH).astype(np.int64)
    engine.stream_update_many(live)         # today's not-yet-archived data
    oracle.update_many(live)

    print(f"\nDataset: {engine.n_historical:,} historical + "
          f"{engine.m_stream:,} streaming elements")
    memory = engine.memory_report()
    print(f"Engine memory: {memory.total_words:,} words "
          f"({memory.total_megabytes:.2f} MB)\n")

    header = f"{'phi':>5} {'mode':>9} {'answer':>12} {'true rank':>12} " \
             f"{'target':>12} {'disk I/O':>9}"
    print(header)
    print("-" * len(header))
    for phi in (0.25, 0.5, 0.75, 0.95, 0.99):
        for mode in ("quick", "accurate"):
            result = engine.quantile(phi, mode=mode)
            true_rank = oracle.rank(result.value)
            print(f"{phi:>5} {mode:>9} {result.value:>12,} "
                  f"{true_rank:>12,} {result.target_rank:>12,} "
                  f"{result.disk_accesses:>9}")

    median = engine.quantile(0.5)
    exact = oracle.query_rank(median.target_rank)
    print(f"\nAccurate median {median.value:,} vs exact {exact:,} "
          f"(stream-bounded error, independent of history size)")


if __name__ == "__main__":
    main()
