"""Standing quantile alerts over a drifting distribution.

The paper's introduction motivates quantiles through DSMS-style
real-time alerting.  This demo holds standing p50/p99 thresholds,
streams a workload whose mean drifts upward and then jumps (a
regression after a deploy, say), and shows the alerts firing the
moment the distribution crosses the thresholds — each check reading
one pinned snapshot, where the quick path costs zero disk accesses.

    python examples/alerting_and_drift.py
"""

from repro import HybridQuantileEngine
from repro.workloads import DriftWorkload

STEPS = 16
BATCH = 15_000

#: (name, phi, fire when the quantile is above this value)
RULES = (
    ("median-drift", 0.5, 1_150_000),
    ("p99-blowup", 0.99, 2_400_000),
)


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

    print(f"{'step':>4} {'batch mean':>12} {'p50':>12} {'p99':>12}  alerts")
    for step in range(1, STEPS + 1):
        batch = workload.generate(BATCH)
        engine.stream_update_many(batch)
        with engine.pin() as view:
            p50, p99 = (r.value for r in view.quantile_many([0.5, 0.99]))
        observed = {0.5: p50, 0.99: p99}
        names = ", ".join(
            name for name, phi, above in RULES if observed[phi] > above
        ) or "-"
        print(f"{step:>4} {batch.mean():>12,.0f} {p50:>12,} {p99:>12,}"
              f"  {names}")
        engine.end_time_step()

    print("\nThe p99 rule fires the step the regression lands; the median")
    print("rule fires once enough drifted data accumulates in the union.")


if __name__ == "__main__":
    main()
