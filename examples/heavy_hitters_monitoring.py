"""Heavy hitters over historical + streaming data (extension).

The paper names heavy hitters next to quantiles as the analytical
primitives that lack integrated historical/streaming methods, and its
future work asks for "other classes of aggregates in this model".  The
library's :class:`~repro.frequent.HeavyHittersEngine` carries the same
design over: Misra-Gries on the stream, the identical leveled
warehouse with partition summaries for candidates, and exact on-disk
counting — so count error is bounded by the stream alone, exactly like
the quantile guarantee.

Scenario: find the top talkers on a peering link across 20 archived
steps plus the live window, where one host only recently went loud.

    python examples/heavy_hitters_monitoring.py
"""

import numpy as np

from repro.frequent import HeavyHittersEngine, MisraGriesSketch
from repro.workloads import NetworkTraceWorkload

STEPS = 20
FLOWS = 20_000
CHRONIC_TALKER = 0x11111  # loud through all of history
RECENT_TALKER = 0x22222   # loud only in the live stream


def with_talker(base: np.ndarray, talker: int, share: float,
                rng: np.random.Generator) -> np.ndarray:
    planted = np.full(int(share * len(base)), np.int64(talker) << 20)
    mixed = np.concatenate([base[: len(base) - len(planted)], planted])
    rng.shuffle(mixed)
    return mixed


def main() -> None:
    rng = np.random.default_rng(11)
    workload = NetworkTraceWorkload(seed=12)
    engine = HeavyHittersEngine(epsilon=0.01, kappa=5, block_elems=100)
    everything = []

    print(f"Archiving {STEPS} steps of {FLOWS:,} flows "
          f"(host {CHRONIC_TALKER:#x} takes 8% throughout)...")
    for _ in range(STEPS):
        batch = with_talker(workload.generate(FLOWS), CHRONIC_TALKER,
                            0.08, rng)
        everything.append(batch)
        engine.stream_update_many(batch)
        engine.end_time_step()

    live = with_talker(workload.generate(FLOWS), RECENT_TALKER, 0.30, rng)
    everything.append(live)
    engine.stream_update_many(live)
    data = np.concatenate(everything)

    print(f"Live stream: host {RECENT_TALKER:#x} bursts to 30%\n")
    report = engine.heavy_hitters(phi=0.012)
    print(f"phi=0.012 heavy hitters over {report.total_size:,} flows "
          f"(threshold {report.threshold:,.0f}); "
          f"{report.candidates_checked} candidates, "
          f"{report.disk_accesses} disk accesses:")
    print(f"{'source':>10} {'count bracket':>23} {'true':>10}")
    for hitter in report.hitters[:8]:
        true = int(np.sum(data == hitter.value))
        print(f"{hitter.value >> 20:>10_x} "
              f"[{hitter.count_low:>10,}, {hitter.count_high:>10,}] "
              f"{true:>10,}")

    # Contrast with a pure-streaming Misra-Gries over all of T.
    pure = MisraGriesSketch.for_epsilon(0.01)
    pure.update_many(data)
    chronic_key = np.int64(CHRONIC_TALKER) << 20
    true = int(np.sum(data == chronic_key))
    print(f"\nChronic talker true count : {true:,}")
    print(f"  hybrid bracket width    : "
          f"{[h for h in report.hitters if h.value == chronic_key][0].count_high - [h for h in report.hitters if h.value == chronic_key][0].count_low:,}"
          f" (bounded by eps * live stream)")
    print(f"  pure-streaming estimate : {pure.estimate(int(chronic_key)):,}"
          f" (may undercount by eps * N = {0.01 * len(data):,.0f})")


if __name__ == "__main__":
    main()
