"""Exploring the accuracy / memory / disk-access tradeoff (Section 4).

Sweeps a main-memory budget, derives the engine's error parameters from
it with the 50/50 split of Section 3.1 (via the invertible memory model
in ``repro.core.memory``), and reports how accuracy and query-time disk
accesses respond — the three-way tradeoff the paper's conclusion maps
out.  Also sweeps the stream/historical split, the paper's stated open
question.

    python examples/memory_accuracy_tradeoff.py
"""

import numpy as np

from repro import EngineConfig, ExactQuantiles, HybridQuantileEngine, MemoryBudget

STEPS = 16
BATCH = 25_000
PHIS = (0.25, 0.5, 0.75, 0.95)


def run_once(eps1: float, eps2: float, seed: int = 21):
    """Load a fixed workload into an engine with the given split."""
    rng = np.random.default_rng(seed)
    config = EngineConfig(
        epsilon=min(0.5, 4 * eps2), eps1=eps1, eps2=eps2,
        kappa=10, block_elems=100,
    )
    engine = HybridQuantileEngine(config=config)
    oracle = ExactQuantiles()
    for _ in range(STEPS):
        batch = rng.integers(10**8, 10**9, BATCH, dtype=np.int64)
        engine.stream_update_many(batch)
        oracle.update_many(batch)
        engine.end_time_step()
    live = rng.integers(10**8, 10**9, BATCH, dtype=np.int64)
    engine.stream_update_many(live)
    oracle.update_many(live)

    errors, accesses = [], []
    for phi in PHIS:
        result = engine.quantile(phi)
        target = result.target_rank
        err = max(
            0,
            oracle.rank_strict(result.value) + 1 - target,
            target - oracle.rank(result.value),
        )
        errors.append(err / target)
        accesses.append(result.disk_accesses)
    report = engine.memory_report()
    return np.mean(errors), np.mean(accesses), report.total_words


def main() -> None:
    print("Memory sweep (50/50 split)")
    header = (f"{'budget kw':>10} {'eps1':>9} {'eps2':>9} "
              f"{'rel error':>10} {'disk I/O':>9} {'used kw':>8}")
    print(header)
    print("-" * len(header))
    for kilowords in (4, 8, 16, 32, 64):
        budget = MemoryBudget(total_words=kilowords * 1000)
        eps1, eps2 = budget.epsilons(BATCH, kappa=10, num_steps=STEPS)
        error, io, used = run_once(eps1, eps2)
        print(f"{kilowords:>10} {eps1:>9.2e} {eps2:>9.2e} "
              f"{error:>10.2e} {io:>9.1f} {used / 1000:>8.1f}")

    print("\nSplit sweep (fixed 16k-word budget; paper: optimal split "
          "is an open question)")
    header = (f"{'stream %':>9} {'eps1':>9} {'eps2':>9} "
              f"{'rel error':>10} {'disk I/O':>9}")
    print(header)
    print("-" * len(header))
    for fraction in (0.2, 0.4, 0.5, 0.6, 0.8):
        budget = MemoryBudget(total_words=16_000, stream_fraction=fraction)
        eps1, eps2 = budget.epsilons(BATCH, kappa=10, num_steps=STEPS)
        error, io, _ = run_once(eps1, eps2)
        print(f"{fraction * 100:>9.0f} {eps1:>9.2e} {eps2:>9.2e} "
              f"{error:>10.2e} {io:>9.1f}")

    print("\nMore memory buys accuracy at slightly higher summary-scan "
          "cost; giving the stream side more of the budget is what "
          "drives the final error down.")


if __name__ == "__main__":
    main()
