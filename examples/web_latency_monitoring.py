"""Web-service latency monitoring (the paper's motivating Section 1 use).

A web service logs per-request latency in microseconds; each hour the
batch is archived to the warehouse.  Operators watch the median (the
"typical" user) and the 0.95/0.99 tail quantiles over *all* traffic —
historical plus the in-flight hour — and want today's live numbers in
the context of weeks of history.

The demo also shows why the hybrid engine matters: a pure-streaming GK
sketch at equal memory answers with error proportional to the entire
history, while the hybrid answer's error stays bounded by the current
hour.

    python examples/web_latency_monitoring.py
"""

import numpy as np

from repro import ExactQuantiles, HybridQuantileEngine, PureStreamingEngine

HOURS = 48          # archived time steps
REQUESTS = 40_000   # requests per hour
EPSILON = 0.01


def hourly_latencies(rng: np.random.Generator, hour: int,
                     size: int) -> np.ndarray:
    """Log-normal service latency with a nightly slowdown."""
    nightly = 1.0 + 0.3 * (hour % 24 in range(0, 6))  # backups at night
    base = rng.lognormal(mean=8.0, sigma=0.6, size=size) * nightly
    # a handful of timeouts stretch the tail
    timeouts = rng.random(size) < 0.001
    base[timeouts] *= 50
    return np.maximum(base.astype(np.int64), 1)


def main() -> None:
    rng = np.random.default_rng(2016)
    hybrid = HybridQuantileEngine(epsilon=EPSILON, kappa=10, block_elems=100)
    streaming = PureStreamingEngine(kind="gk", epsilon=EPSILON,
                                    universe_log2=26)
    oracle = ExactQuantiles()

    print(f"Ingesting {HOURS} hourly batches of {REQUESTS:,} requests...")
    for hour in range(HOURS):
        batch = hourly_latencies(rng, hour, REQUESTS)
        for engine in (hybrid, streaming):
            engine.stream_update_many(batch)
            engine.end_time_step()
        oracle.update_many(batch)

    live = hourly_latencies(rng, HOURS, REQUESTS)
    hybrid.stream_update_many(live)
    streaming.stream_update_many(live)
    oracle.update_many(live)

    print(f"\nTotal requests observed: {oracle.n:,} "
          f"({hybrid.m_stream:,} in the live hour)\n")
    header = (f"{'quantile':>9} {'exact us':>10} {'hybrid us':>10} "
              f"{'stream us':>10} {'hybrid err':>11} {'stream err':>11}")
    print(header)
    print("-" * len(header))
    for phi, label in ((0.5, "median"), (0.95, "p95"), (0.99, "p99")):
        target = max(1, int(np.ceil(phi * oracle.n)))
        exact = oracle.query_rank(target)
        ours = hybrid.quantile(phi)
        theirs = streaming.quantile(phi)
        our_err = abs(oracle.rank(ours.value) - target)
        their_err = abs(oracle.rank(theirs.value) - target)
        print(f"{label:>9} {exact:>10,} {ours.value:>10,} "
              f"{theirs.value:>10,} {our_err:>11,} {their_err:>11,}")

    print("\nRank errors: hybrid is bounded by the live hour "
          f"(~{EPSILON * hybrid.m_stream:.0f}); pure streaming degrades "
          f"with total history (~{EPSILON * oracle.n:.0f}).")
    p99 = hybrid.quantile(0.99)
    print(f"Accurate p99 cost: {p99.disk_accesses} random block reads, "
          f"{p99.sim_seconds * 1000:.1f} ms simulated disk time.")


if __name__ == "__main__":
    main()
