"""TS-build guards (no pytest-benchmark): two timing ratios, one count.

The historical half of TS depends on the partition set only, so the
engines memoise it (``HistoricalMemo``) and a query that has to fuse a
TS pays for the stream half alone.  The first guard keeps that split
from silently regressing: on the ``query_heavy`` benchmark's shape — 13
partition summaries of 2001 entries (eps1 = 5e-4) and one stream
summary of 4001 (eps2 = 2.5e-4) — ``CombinedSummary.build`` through a
memo that holds HS must be at least 3x faster than the same call
folding one on the spot.  Every timed call is handed a fresh extraction,
so the memo fuses each time instead of returning the TS it retains.
Both sides are timed in the same process with plain
``time.perf_counter``, median of 15, so the ratio is insensitive to how
fast the runner is; the measured ratio is ~8x, so only a real
regression trips the floor.

The second guard holds the fused TS to being *searched*: at the same
shape, a memoised build on a fresh extraction followed by one
``quick_response`` and one ``generate_filters`` must be at least 2x
faster than the same build followed by building the paper's arrays
(``tests/core/ts_arrays_reference.py``), which pays for all |TS| slots
(measured ~3x).

The third guard counts, so it cannot flake: between two appends every
query shares one sketch snapshot, one SS extraction and one fusion, and
the answers are the ones the parent commit gave when it rebuilt all
three per query.
"""

import statistics
import time

import numpy as np

from repro import EngineConfig, HybridQuantileEngine
from repro.core.bounds import CombinedSummary
from repro.core.epoch import HistoricalMemo
from repro.core.summaries import PartitionSummary, StreamSummary
from repro.sketches.gk import GKSketch
from repro.stats import EPOCH_FIELDS
from repro.storage import SimulatedDisk, SortedRun
from repro.warehouse import Partition
from tests.core.ts_arrays_reference import paper_arrays

PARTITIONS = 13
PARTITION_ELEMS = 100_000
STREAM_ELEMS = 50_000
EPS1 = 5e-4
EPS2 = 2.5e-4
ROUNDS = 15
#: minimum memoised-over-folded speedup (the ISSUE contract).
SPEEDUP_FLOOR = 3.0
#: minimum speedup of fuse-and-search over fuse-and-materialise.
SEARCH_FLOOR = 2.0


def _median_seconds(fn, arguments) -> float:
    times = []
    for argument in arguments:
        start = time.perf_counter()
        fn(argument)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _query_heavy_shape():
    """13 x 2001 HS, and ``ROUNDS`` extractions of one 4001-entry SS."""
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
    # One extraction per timed call: equal arrays, distinct objects.
    streams = [StreamSummary.extract(sketch, EPS2) for _ in range(ROUNDS)]
    assert [len(s) for s in summaries] == [2001] * PARTITIONS
    assert len(streams[0]) == 4001
    return summaries, sketch, streams


def test_memoised_historical_speedup():
    summaries, sketch, streams = _query_heavy_shape()

    memo = HistoricalMemo()
    CombinedSummary.build(summaries, StreamSummary.extract(sketch, EPS2), memo)
    folded = _median_seconds(
        lambda stream: CombinedSummary.build(summaries, stream), streams
    )
    fused = _median_seconds(
        lambda stream: CombinedSummary.build(summaries, stream, memo), streams
    )
    counts = memo.table.read(EPOCH_FIELDS)
    assert (counts.hs_builds, counts.hs_extends, counts.ts_reuses) == (1, 0, 0)
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


def test_fused_ts_is_searched_not_built():
    """A fusion ranks the SS entries in HS; Algorithms 5 and 7 search
    that.  Building the paper's arrays pays for all 30 014 slots; a
    fusion plus two lookups must not."""
    summaries, sketch, streams = _query_heavy_shape()
    memo = HistoricalMemo()
    first = CombinedSummary.build(
        summaries, StreamSummary.extract(sketch, EPS2), memo
    )
    assert len(first) == 30_014
    rank = first.total_size // 2

    def searched(stream):
        ts = CombinedSummary.build(summaries, stream, memo)
        return ts.quick_response(rank), ts.generate_filters(rank)

    def built(stream):
        return paper_arrays(CombinedSummary.build(summaries, stream, memo))

    # Taken in turns, each on an extraction of its own, so a change of
    # the runner's speed mid-test falls on both medians.
    others = [StreamSummary.extract(sketch, EPS2) for _ in range(ROUNDS)]
    turns = [
        (_median_seconds(searched, [one]), _median_seconds(built, [other]))
        for one, other in zip(streams, others)
    ]
    searched_s, built_s = map(statistics.median, zip(*turns))
    counts = memo.table.read(EPOCH_FIELDS)
    assert (counts.hs_builds, counts.hs_extends, counts.ts_reuses) == (1, 0, 0)
    speedup = built_s / searched_s
    print(
        f"\nfused TS, 30 014 entries: searched {searched_s * 1e3:.2f} ms vs "
        f"materialised {built_s * 1e3:.2f} ms ({speedup:.1f}x, floor "
        f"{SEARCH_FLOOR}x)"
    )
    assert speedup >= SEARCH_FLOOR, (
        f"a fusion plus two lookups is only {speedup:.1f}x faster than "
        f"building the arrays (floor {SEARCH_FLOOR}x)"
    )


TRICKLE_ELEMS = 512
TRICKLES = 10
QUERIES_PER_TRICKLE = 8

#: (value, estimated_rank, disk_accesses, iterations) of the 80 queries
#: below, alternately quick and accurate, recorded by running the same
#: script on a clone of the parent commit (PR 16), which snapshotted,
#: extracted and fused for every one of them.
PARENT_TRANSCRIPT = [
    (152785893438, 187215.0, 0, 0), (71678841431, 87953.5, 13, 30),
    (988202301014, 1212929.0, 0, 0), (44791992545, 54865.5, 15, 28),
    (678324568436, 832422.0, 0, 0), (179460793897, 220303.5, 15, 29),
    (435801627823, 534634.0, 0, 0), (947442385161, 1163298.5, 14, 29),
    (381969509428, 468637.0, 0, 0), (745225659357, 915495.5, 15, 29),
    (1068716645852, 1312689.0, 0, 0), (368301267535, 452087.5, 13, 29),
    (489839969574, 601037.0, 0, 0), (583980678197, 716888.5, 14, 29),
    (18015073693, 21786.0, 0, 0), (637786391895, 783088.5, 13, 29),
    (99045568471, 121132.0, 0, 0), (610978690594, 750272.5, 13, 29),
    (287402826525, 352920.0, 0, 0), (165875129245, 203913.5, 13, 29),
    (772154897037, 948948.0, 0, 0), (273604679708, 336364.5, 13, 29),
    (543699093119, 667490.0, 0, 0), (825855840806, 1015173.5, 13, 29),
    (1055363085592, 1297122.0, 0, 0), (1014855713553, 1247434.5, 14, 29),
    (705018969591, 866494.0, 0, 0), (933793507154, 1148058.0, 14, 29),
    (785674693211, 965870.0, 0, 0), (314100875709, 386189.5, 14, 29),
    (300901770484, 369617.0, 0, 0), (354849562704, 435867.5, 13, 29),
    (85474716950, 104655.0, 0, 0), (327578855761, 402894.5, 15, 29),
    (732120227729, 899960.0, 0, 0), (879726537884, 1082218.0, 14, 29),
    (758946813315, 933098.0, 0, 0), (475895009483, 585152.5, 13, 29),
    (409012824679, 502307.0, 0, 0), (462487460452, 568583.5, 14, 29),
    (1042032638221, 1281529.0, 0, 0), (516338874872, 635099.5, 14, 29),
    (233514536432, 287021.0, 0, 0), (866439090433, 1066052.5, 13, 29),
    (664637939540, 817425.0, 0, 0), (260190681820, 320171.5, 14, 29),
    (570623668165, 701399.0, 0, 0), (1081930094609, 1331254.5, 13, 29),
    (341455135048, 419781.0, 0, 0), (395317825364, 486108.5, 16, 29),
    (557083636766, 685083.0, 0, 0), (112137545300, 137897.0, 13, 29),
    (1001678105141, 1232270.0, 0, 0), (718348322620, 884060.5, 13, 29),
    (961269660878, 1182525.0, 0, 0), (206368037330, 253967.0, 13, 29),
    (139322489374, 171124.0, 0, 0), (691324072458, 851219.5, 13, 30),
    (219982169067, 270650.0, 0, 0), (502914787087, 618992.0, 13, 29),
    (651363542138, 801456.0, 0, 0), (31249168649, 38423.0, 13, 29),
    (839839212871, 1033684.0, 0, 0), (192926050067, 237475.0, 13, 30),
    (853365946903, 1050668.0, 0, 0), (246598965564, 303941.0, 16, 29),
    (1028526481867, 1266390.0, 0, 0), (812392836499, 1000886.0, 13, 29),
    (449269779209, 552850.0, 0, 0), (125511253110, 154595.5, 13, 29),
    (974812071862, 1200014.0, 0, 0), (906771411820, 1117044.0, 13, 29),
    (422524382722, 519858.0, 0, 0), (893153809459, 1100866.0, 13, 29),
    (58581567802, 71652.0, 0, 0), (624382553098, 768862.0, 13, 29),
    (597671664999, 735661.0, 0, 0), (920256568423, 1134067.0, 13, 29),
    (799170530093, 984665.0, 0, 0), (529890537639, 652671.0, 17, 29),
]


def test_queries_between_appends_share_one_fusion(monkeypatch):
    """The ``query_heavy`` shape: 13 x 100 000 sealed, 50 000 live, a
    512-element trickle every 8 queries."""
    counts = {"extract": 0, "snapshot": 0}
    extract, snapshot = StreamSummary.extract, GKSketch.snapshot

    def counting_extract(sketch, eps2):
        counts["extract"] += 1
        return extract(sketch, eps2)

    def counting_snapshot(sketch):
        counts["snapshot"] += 1
        return snapshot(sketch)

    monkeypatch.setattr(StreamSummary, "extract", counting_extract)
    monkeypatch.setattr(GKSketch, "snapshot", counting_snapshot)
    rng = np.random.default_rng(5)
    queries = TRICKLES * QUERIES_PER_TRICKLE
    config = EngineConfig(epsilon=2 * EPS1, kappa=PARTITIONS + 1)
    assert (config.epsilon1, config.epsilon2) == (EPS1, EPS2)
    with HybridQuantileEngine(config=config) as engine:
        for _ in range(PARTITIONS):
            engine.stream_update_many(
                rng.integers(0, 1 << 40, PARTITION_ELEMS)
            )
            engine.end_time_step()
        engine.stream_update_many(rng.integers(0, 1 << 40, STREAM_ELEMS))
        phis = 0.01 + 0.98 * rng.permutation(
            (np.arange(queries) + 0.5) / queries
        )
        transcript = []
        for trickle in range(TRICKLES):
            engine.stream_update_many(rng.integers(0, 1 << 40, TRICKLE_ELEMS))
            for query in range(QUERIES_PER_TRICKLE):
                result = engine.quantile(
                    float(phis[trickle * QUERIES_PER_TRICKLE + query]),
                    mode="accurate" if query % 2 else "quick",
                )
                transcript.append(
                    (
                        result.value,
                        result.estimated_rank,
                        result.disk_accesses,
                        result.iterations,
                    )
                )
            stats = engine.epoch_stats
            # One new sketch version per trickle, whatever was asked of it.
            done = trickle + 1
            assert counts == {"extract": done, "snapshot": done}
            assert stats.ts_merges - stats.ts_reuses == done
            assert stats.ts_merges == done * QUERIES_PER_TRICKLE
        assert (stats.hs_builds, stats.hs_extends) == (1, 0)
    assert transcript == PARENT_TRANSCRIPT
