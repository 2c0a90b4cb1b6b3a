"""TS-build timing guard (no pytest-benchmark).

The historical half of TS depends on the partition set only, so the
engines memoise it (``HistoricalSummary``) and a query between two
seals pays for the stream half alone.  This guard keeps that split from
silently regressing: on the ``query_heavy`` benchmark's shape — 13
partition summaries of 2001 entries (eps1 = 5e-4) and one stream
summary of 4001 (eps2 = 2.5e-4) — ``CombinedSummary.build`` handed a
memoised ``historical`` must be at least 3x faster than the same call
folding one on the spot.  Both sides are timed in the same process with
plain ``time.perf_counter``, median of 15, so the ratio is insensitive
to how fast the runner is; the measured ratio is ~8x, so only a real
regression trips the floor.
"""

import statistics
import time

import numpy as np

from repro.core.bounds import CombinedSummary, HistoricalSummary
from repro.core.summaries import PartitionSummary, StreamSummary
from repro.sketches.gk import GKSketch
from repro.storage import SimulatedDisk, SortedRun
from repro.warehouse import Partition

PARTITIONS = 13
PARTITION_ELEMS = 100_000
STREAM_ELEMS = 50_000
EPS1 = 5e-4
EPS2 = 2.5e-4
ROUNDS = 15
#: minimum memoised-over-folded speedup (the ISSUE contract).
SPEEDUP_FLOOR = 3.0


def _median_seconds(fn) -> float:
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_memoised_historical_speedup():
    rng = np.random.default_rng(5)
    disk = SimulatedDisk(block_elems=1024)
    summaries = [
        PartitionSummary.build(
            Partition(
                level=0,
                start_step=step,
                end_step=step,
                run=SortedRun(
                    disk, np.sort(rng.integers(0, 1 << 40, PARTITION_ELEMS))
                ),
            ),
            EPS1,
        )
        for step in range(1, PARTITIONS + 1)
    ]
    sketch = GKSketch(EPS2 / 2.0)
    sketch.update_many(rng.integers(0, 1 << 40, STREAM_ELEMS))
    stream = StreamSummary.extract(sketch, EPS2)
    assert [len(s) for s in summaries] == [2001] * PARTITIONS
    assert len(stream) == 4001

    memoised = HistoricalSummary.fold(summaries)
    folded = _median_seconds(
        lambda: CombinedSummary.build(summaries, stream)
    )
    fused = _median_seconds(
        lambda: CombinedSummary.build(summaries, stream, memoised)
    )
    speedup = folded / fused
    print(
        f"\nTS build, {PARTITIONS}x2001 HS + 4001 SS: folding "
        f"{folded * 1e3:.2f} ms vs memoised {fused * 1e3:.2f} ms "
        f"({speedup:.1f}x, floor {SPEEDUP_FLOOR}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"memoised TS build speedup regressed: {speedup:.1f}x is below "
        f"{SPEEDUP_FLOOR}x"
    )
