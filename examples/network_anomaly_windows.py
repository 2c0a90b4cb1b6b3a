"""Network monitoring with windowed quantile queries.

The paper motivates integrated historical + streaming analytics with
network monitoring for intrusion detection: compare the traffic
distribution of the last few time steps against long-run history.  This
demo streams synthetic source/destination flow keys, injects a scan
burst (one source fanning out to many destinations) late in the trace,
and uses *windowed* quantile queries — answerable whenever the window
aligns with partition boundaries — to spot the distribution shift that
full-history queries dilute away.

    python examples/network_anomaly_windows.py
"""

import numpy as np

from repro import HybridQuantileEngine, WindowNotAlignedError
from repro.workloads import NetworkTraceWorkload

STEPS = 27          # archived time steps (kappa=3 gives windows 1,3,9,27)
FLOWS = 30_000      # flows per step
SCAN_SOURCE = (1 << 20) - 1   # scanning host: sorts above all real traffic


def scan_burst(rng: np.random.Generator, size: int) -> np.ndarray:
    """A port-scan-like burst: one source, many random destinations."""
    destinations = rng.integers(0, 1 << 20, size, dtype=np.int64)
    return (np.int64(SCAN_SOURCE) << 20) | destinations


def main() -> None:
    workload = NetworkTraceWorkload(seed=4)
    rng = np.random.default_rng(99)
    engine = HybridQuantileEngine(epsilon=0.01, kappa=3, block_elems=100)

    print(f"Archiving {STEPS} steps of {FLOWS:,} flows each...")
    for step in range(STEPS):
        engine.stream_update_many(workload.generate(FLOWS))
        engine.end_time_step()

    # The live step mixes normal traffic with the scan burst.
    normal = workload.generate(FLOWS // 2)
    burst = scan_burst(rng, FLOWS // 2)
    engine.stream_update_many(np.concatenate([normal, burst]))

    print(f"Live stream: {engine.m_stream:,} flows "
          f"(half of them a scan burst from host {SCAN_SOURCE})\n")

    print("Feasible historical windows (time steps):",
          engine.available_window_sizes())
    try:
        engine.quantile(0.5, window_steps=5)
    except WindowNotAlignedError as exc:
        print(f"Window of 5 steps rejected as expected: {exc}\n")

    header = (f"{'window':>7} {'p50 source':>11} {'p90 source':>11} "
              f"{'disk I/O':>9}")
    print(header)
    print("-" * len(header))
    for window in [0] + engine.available_window_sizes():
        kwargs = {"window_steps": window} if window else {}
        p50 = engine.quantile(0.5, **kwargs)
        p90 = engine.quantile(0.9, **kwargs)
        label = f"{window or 'all'}"
        print(f"{label:>7} {p50.value >> 20:>11} {p90.value >> 20:>11} "
              f"{p50.disk_accesses + p90.disk_accesses:>9}")

    small = engine.quantile(0.9, window_steps=1)
    full = engine.quantile(0.9)
    print("\nThe scan source dominates the upper quantiles of the "
          "1-step window:")
    print(f"  p90 source over last step : {small.value >> 20}")
    print(f"  p90 source over all data  : {full.value >> 20}")


if __name__ == "__main__":
    main()
