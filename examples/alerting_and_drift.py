"""Standing quantile alerts over a drifting distribution.

The paper's introduction motivates quantiles through DSMS-style
real-time alerting.  This demo registers standing p50/p99 threshold
rules with a :class:`~repro.core.monitoring.QuantileWatcher`, streams a
workload whose mean drifts upward and then jumps (a regression after a
deploy, say), and shows the alerts firing the moment the distribution
crosses the thresholds — each evaluation reading one consistent
snapshot, while quick-mode rules cost zero disk accesses.

    python examples/alerting_and_drift.py
"""

from repro import HybridQuantileEngine, QuantileWatcher
from repro.workloads import DriftWorkload

STEPS = 16
BATCH = 15_000


def main() -> None:
    workload = DriftWorkload(
        seed=5,
        start_mean=1_000_000,
        drift_per_batch=25_000,
        stddev=80_000,
        jump_at=12,           # the "bad deploy"
        jump_to=2_500_000,
    )
    engine = HybridQuantileEngine(epsilon=0.01, kappa=4, block_elems=100)
    watcher = QuantileWatcher(engine)
    watcher.add("median-drift", phi=0.5, above=1_150_000)
    watcher.add("p99-blowup", phi=0.99, above=2_400_000)

    print(f"{'step':>4} {'batch mean':>12} {'p50':>12} {'p99':>12}  alerts")
    for step in range(1, STEPS + 1):
        batch = workload.generate(BATCH)
        engine.stream_update_many(batch)
        alerts = watcher.evaluate()
        p50 = engine.quantile(0.5, mode="quick").value
        p99 = engine.quantile(0.99, mode="quick").value
        names = ", ".join(a.rule.name for a in alerts) or "-"
        print(f"{step:>4} {batch.mean():>12,.0f} {p50:>12,} {p99:>12,}"
              f"  {names}")
        engine.end_time_step()

    print("\nThe p99 rule fires the step the regression lands; the median")
    print("rule fires once enough drifted data accumulates in the union.")


if __name__ == "__main__":
    main()
